"""Typing surface sanity: py.typed marker, mypy config, optional strict run."""

import configparser
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(repro.__file__).resolve().parents[2]

STRICT_MODULES = (
    "repro.engine.fingerprints",
    "repro.engine.persist",
    "repro.parallel",
    "repro.session.requests",
    "repro.analysis.schema_lock",
)


def test_py_typed_marker_ships_with_the_package():
    marker = Path(repro.__file__).with_name("py.typed")
    assert marker.is_file()
    setup = (REPO_ROOT / "setup.py").read_text()
    assert "py.typed" in setup  # installed wheels must carry the marker too


def test_mypy_config_pins_the_strict_islands():
    config_path = REPO_ROOT / "mypy.ini"
    assert config_path.is_file()
    config = configparser.ConfigParser()
    config.read(config_path)
    assert config.get("mypy", "python_version") == "3.11"
    # The blanket section keeps the rest of the tree permissive...
    assert config.getboolean("mypy-repro.*", "ignore_errors")
    # ...while each strict island opts back in with real checks.
    for module in STRICT_MODULES:
        section = f"mypy-{module}"
        assert config.has_section(section), section
        assert not config.getboolean(section, "ignore_errors")
        assert config.getboolean(section, "disallow_untyped_defs")


def test_strict_modules_exist_and_import():
    for module in STRICT_MODULES:
        assert importlib.util.find_spec(module) is not None, module


def test_mypy_strict_islands_are_clean():
    if importlib.util.find_spec("mypy") is None:
        pytest.skip("mypy is not installed in this environment (CI runs it)")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
