"""Cold start of one workload: import ``repro`` and build its ``Session``.

``run.py`` times this script in a fresh interpreter, from process start to
exit, scales each time to the reference host (``calibrate.py``) and
reports the median as ``setup_s``.  Usage::

    python3 e2ebench/setup_probe.py WORKLOAD [STORE]

``warm`` opens the pre-filled store at STORE, as a restarted service would.
"""

import sys
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import repro

    if sys.argv[1] == "warm":
        repro.Session(persist_path=sys.argv[2]).close()
    else:
        repro.Session(memoize=False)


if __name__ == "__main__":
    main()
