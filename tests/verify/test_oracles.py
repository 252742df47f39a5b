"""Unit tests for the differential oracles."""

import pytest

from repro.exceptions import VerifyError
from repro.queries.parser import parse_cq
from repro.verify.corpus import builtin_pairs
from repro.verify.oracles import (
    DIOPHANTINE_PATHS,
    OracleConfig,
    run_differential_oracle,
)


class TestOracleConfig:
    def test_defaults_cover_every_axis(self):
        config = OracleConfig()
        assert set(config.strategies) == {"most-general", "all-probes", "bounded-guess"}
        assert set(config.backends) == {"naive", "interned"}
        assert set(config.diophantine_paths) == set(DIOPHANTINE_PATHS)

    def test_unknown_names_are_rejected(self):
        with pytest.raises(VerifyError):
            OracleConfig(strategies=("most-general", "telepathy"))
        for removed in ("gpu", "indexed", "generated"):
            with pytest.raises(VerifyError):
                OracleConfig(backends=(removed,))
        with pytest.raises(VerifyError):
            OracleConfig(diophantine_paths=("sat",))
        with pytest.raises(VerifyError):
            OracleConfig(strategies=())


class TestBuiltinPairs:
    @pytest.mark.parametrize("pair_index", range(10))
    def test_builtin_pairs_are_discrepancy_free(self, pair_index):
        containee, containing = builtin_pairs()[pair_index]
        report = run_differential_oracle(containee, containing)
        assert report.ok, report.describe()
        assert report.consensus is not None
        # Every negative run replayed its certificate through bag evaluation.
        for run in report.runs:
            if run.contained is False:
                assert run.certificate_ok is True

    def test_full_axis_coverage_per_pair(self):
        containee, containing = builtin_pairs()[0]
        report = run_differential_oracle(containee, containing)
        labels = {run.label for run in report.runs}
        # 2 strategies x 2 paths x 2 backends + bounded-guess x 1 path x 2 backends
        assert len(labels) == 10
        assert "most-general/lp/naive" in labels
        assert "bounded-guess/exact/interned" in labels
        assert "most-general/exact/interned" in labels


class TestOracleRobustness:
    def test_non_projection_free_containee_is_reported_not_raised(self):
        containee = parse_cq("q1(x) <- R(x, y)")
        containing = parse_cq("q2(x) <- R(x, x)")
        report = run_differential_oracle(containee, containing)
        assert not report.ok
        assert all(d.kind == "error" for d in report.discrepancies)

    def test_bounded_guess_explosion_is_skipped_not_failed(self):
        containee = parse_cq("q1(x) <- R^9(x, x), S^9(x, x), T^9(x, x)")
        containing = parse_cq("q2(x) <- R(x, x), S(x, x), T(x, x)")
        config = OracleConfig(bounded_guess_max_candidates=5)
        report = run_differential_oracle(containee, containing, config)
        skipped = [run for run in report.runs if run.skipped is not None]
        assert skipped and all(run.strategy == "bounded-guess" for run in skipped)
        assert report.ok, report.describe()

    def test_strategy_subset_is_honoured(self):
        containee, containing = builtin_pairs()[1]
        config = OracleConfig(strategies=("most-general",))
        report = run_differential_oracle(containee, containing, config)
        assert {run.strategy for run in report.runs} == {"most-general"}
        assert report.decisions == 4  # 2 paths x 2 backends

    def test_consensus_matches_the_decision_procedure(self):
        positive = run_differential_oracle(*builtin_pairs()[0])
        negative = run_differential_oracle(*builtin_pairs()[2])
        assert positive.consensus is True
        assert negative.consensus is False
        assert "contained" in positive.describe()
