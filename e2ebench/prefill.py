"""Warm's earlier session: decide the pre-fill set into a new store, then close it.

``run.py`` runs this in a child process before the measured passes, so the
earlier session's memory never counts in the measured process's peak.
Usage::

    python3 e2ebench/prefill.py STORE SEED [--tiny]
"""

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import pools
    from repro import Session

    store, seed = argv[0], int(argv[1])
    workload = pools.build("warm", seed, tiny="--tiny" in argv[2:])
    earlier = Session(persist_path=store, name="e2ebench-earlier")
    for item in workload.prefill:
        earlier.decide(item.request)
    earlier.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
