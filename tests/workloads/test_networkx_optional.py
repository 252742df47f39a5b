"""networkx is not a dependency: ``import repro`` works without it.

Run in a subprocess whose ``sys.modules`` blocks ``networkx``, so the check
holds however the test interpreter itself is provisioned.
"""

import subprocess
import sys
from pathlib import Path

_SCRIPT = """
import sys

sys.modules["networkx"] = None
sys.path.insert(0, {src_path!r})

import repro
from repro.workloads.graphs import random_graph

print(random_graph(6, 0.5, seed=3))
"""


def test_import_repro_without_networkx():
    src_path = str(Path(__file__).parents[2] / "src")
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(src_path=src_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().startswith("[(")
