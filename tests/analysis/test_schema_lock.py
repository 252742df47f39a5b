"""Persist-schema drift detection: fingerprints, lock checks, variants."""

import importlib.util
import sys
from pathlib import Path

import pytest

import repro.analysis.schema_lock as schema_lock
from repro.analysis.schema_lock import (
    check_lock,
    current_fingerprint,
    diff_layouts,
    write_lock,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def load_schema_fixtures():
    spec = importlib.util.spec_from_file_location(
        "schema_fixtures", FIXTURE_DIR / "schema_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURES = load_schema_fixtures()

_MODULE_NAME = "_repro_schema_lock_variant"


def materialise(source, tmp_path, monkeypatch):
    """Build a module from *source* and point ROOT_TYPES at its Payload."""
    path = tmp_path / f"{_MODULE_NAME}.py"
    path.write_text(source, encoding="utf-8")
    spec = importlib.util.spec_from_file_location(_MODULE_NAME, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, _MODULE_NAME, module)
    spec.loader.exec_module(module)
    monkeypatch.setattr(schema_lock, "ROOT_TYPES", ((_MODULE_NAME, "Payload"),))
    return module


class TestRealTree:
    def test_fingerprint_covers_the_persisted_roots_transitively(self):
        fingerprint = current_fingerprint()
        names = set(fingerprint.types)
        assert "repro.core.encoding.MpiEncoding" in names
        assert "repro.core.decision.BagContainmentResult" in names
        # Transitive reach: terms referenced through encoding fields.
        assert "repro.relational.terms.Variable" in names
        assert len(names) >= 15

    def test_fingerprint_is_deterministic(self):
        assert current_fingerprint().digest == current_fingerprint().digest

    def test_committed_lock_matches_the_running_code(self):
        lock_path = Path(__file__).parents[2] / "persist-schema.lock"
        assert lock_path.exists(), "persist-schema.lock must be committed"
        problems = check_lock(lock_path)
        assert problems == [], "\n".join(problems)


class TestLockStates:
    def test_missing_lock_is_reported(self, tmp_path):
        problems = check_lock(tmp_path / "absent.lock")
        assert len(problems) == 1
        assert "missing" in problems[0]

    def test_unreadable_lock_is_reported(self, tmp_path):
        path = tmp_path / "garbage.lock"
        path.write_text("{not json", encoding="utf-8")
        problems = check_lock(path)
        assert len(problems) == 1
        assert "unreadable" in problems[0]

    def test_freshly_written_lock_matches(self, tmp_path):
        path = tmp_path / "persist-schema.lock"
        write_lock(path)
        assert check_lock(path) == []

    def test_version_bump_makes_the_lock_stale(self, tmp_path, monkeypatch):
        path = tmp_path / "persist-schema.lock"
        write_lock(path)
        import repro.engine.persist as persist

        monkeypatch.setattr(persist, "SCHEMA_VERSION", persist.SCHEMA_VERSION + 1)
        problems = check_lock(path)
        assert len(problems) == 1
        assert "stale" in problems[0]

    def test_layout_drift_without_bump_fails_with_a_diff(
        self, tmp_path, monkeypatch
    ):
        materialise(FIXTURES.BASELINE, tmp_path, monkeypatch)
        path = tmp_path / "persist-schema.lock"
        write_lock(path)
        materialise(FIXTURES.DRIFT_VARIANTS["field-added"], tmp_path, monkeypatch)
        problems = check_lock(path)
        assert any("without a SCHEMA_VERSION bump" in problem for problem in problems)
        assert any("field extra added" in problem for problem in problems)


class TestSeededVariants:
    @pytest.fixture()
    def baseline_digest(self, tmp_path, monkeypatch):
        materialise(FIXTURES.BASELINE, tmp_path, monkeypatch)
        return current_fingerprint().digest

    @pytest.mark.parametrize("name", sorted(FIXTURES.DRIFT_VARIANTS))
    def test_drift_variants_change_the_fingerprint(
        self, name, baseline_digest, tmp_path, monkeypatch
    ):
        materialise(FIXTURES.DRIFT_VARIANTS[name], tmp_path, monkeypatch)
        assert current_fingerprint().digest != baseline_digest

    @pytest.mark.parametrize("name", sorted(FIXTURES.CLEAN_VARIANTS))
    def test_clean_variants_keep_the_fingerprint(
        self, name, baseline_digest, tmp_path, monkeypatch
    ):
        materialise(FIXTURES.CLEAN_VARIANTS[name], tmp_path, monkeypatch)
        assert current_fingerprint().digest == baseline_digest

    def test_variant_counts_meet_the_corpus_floor(self):
        assert len(FIXTURES.DRIFT_VARIANTS) >= 5
        assert len(FIXTURES.CLEAN_VARIANTS) >= 5


class TestDiff:
    def test_diff_reports_field_level_changes(self):
        old = {"T": {"kind": "dataclass", "fields": [["a", "int"], ["b", "str"]]}}
        new = {"T": {"kind": "dataclass", "fields": [["a", "float"], ["c", "str"]]}}
        lines = list(diff_layouts(old, new))
        assert "T: field b removed" in lines
        assert "T: field c added" in lines
        assert "T: field a retyped int -> float" in lines

    def test_diff_reports_reordering(self):
        old = {"T": {"kind": "dataclass", "fields": [["a", "int"], ["b", "str"]]}}
        new = {"T": {"kind": "dataclass", "fields": [["b", "str"], ["a", "int"]]}}
        lines = list(diff_layouts(old, new))
        assert any("field order changed" in line for line in lines)

    def test_diff_reports_reachability_changes(self):
        old = {"T": {"kind": "dataclass", "fields": []}}
        new = {"U": {"kind": "dataclass", "fields": []}}
        lines = list(diff_layouts(old, new))
        assert "T: no longer reachable from the persisted roots" in lines
        assert "U: newly reachable from the persisted roots" in lines
