"""Tests for corpus persistence and the parallel campaign runner."""

import dataclasses

import pytest

from repro.exceptions import VerifyError
from repro.io.json_codec import SerializationError, dump_json
from repro.queries.parser import parse_cq
from repro.verify.corpus import (
    CorpusEntry,
    builtin_pairs,
    entry_from_dict,
    entry_to_dict,
    load_corpus,
    replay_corpus,
    save_corpus,
)
from repro.verify.oracles import OracleConfig
from repro.verify.runner import (
    CampaignConfig,
    campaign_corpus,
    generate_case,
    run_campaign,
    run_case,
)

#: A light oracle configuration so runner tests stay fast.
FAST = dict(
    strategies=("most-general", "all-probes"),
    backends=("interned",),
    diophantine_paths=("exact",),
)


class TestCorpusRoundTrip:
    def test_entry_round_trip(self):
        containee, containing = builtin_pairs()[4]
        entry = CorpusEntry(
            case_id="case-7",
            origin="builtin[4]",
            containee=containee,
            containing=containing,
            expected=True,
            note="hello",
        )
        assert entry_from_dict(entry_to_dict(entry)) == entry

    def test_save_and_load(self, tmp_path):
        entries = [
            CorpusEntry("case-0", "builtin[0]", *builtin_pairs()[0], expected=True),
            CorpusEntry("case-1", "builtin[2]", *builtin_pairs()[2], expected=False),
        ]
        path = save_corpus(entries, tmp_path / "corpus.json")
        assert load_corpus(path) == entries

    def test_loading_a_non_corpus_file_raises(self, tmp_path):
        path = dump_json({"kind": "workload", "queries": []}, tmp_path / "not_corpus.json")
        with pytest.raises(SerializationError):
            load_corpus(path)

    def test_replay_flags_verdict_drift(self, tmp_path):
        containee, containing = builtin_pairs()[0]
        entries = [
            CorpusEntry("case-0", "builtin[0]", containee, containing, expected=False)
        ]
        path = save_corpus(entries, tmp_path / "drift.json")
        failures = replay_corpus(path, OracleConfig(**FAST))
        assert len(failures) == 1
        _, report = failures[0]
        assert any(d.kind == "verdict-drift" for d in report.discrepancies)

    def test_replay_of_a_clean_corpus_is_empty(self, tmp_path):
        containee, containing = builtin_pairs()[0]
        entries = [CorpusEntry("case-0", "builtin[0]", containee, containing, expected=True)]
        path = save_corpus(entries, tmp_path / "clean.json")
        assert replay_corpus(path, OracleConfig(**FAST)) == []


class TestCaseGeneration:
    def test_cases_are_deterministic_in_seed_and_index(self):
        config = CampaignConfig(cases=10, seed=3)
        assert generate_case(config, 4) == generate_case(config, 4)

    def test_cases_vary_with_the_index(self):
        config = CampaignConfig(cases=30, seed=0)
        origins = {generate_case(config, index).origin for index in range(30)}
        assert len(origins) > 5

    def test_every_generator_family_appears(self):
        config = CampaignConfig(cases=120, seed=0)
        families = {
            generate_case(config, index).origin.split("[")[0] for index in range(120)
        }
        assert families == {"adversarial", "containment", "unrelated", "builtin", "chain", "star"}

    def test_invalid_configs_are_rejected(self):
        with pytest.raises(VerifyError):
            CampaignConfig(cases=-1)
        with pytest.raises(VerifyError):
            CampaignConfig(jobs=0)
        with pytest.raises(VerifyError):
            CampaignConfig(mutation_rate=2.0)
        with pytest.raises(VerifyError):
            CampaignConfig(time_budget=0.0)


class TestCampaigns:
    def test_inline_campaign_is_clean_and_deterministic(self):
        config = CampaignConfig(cases=12, seed=0, jobs=1, **FAST)
        first = run_campaign(config)
        second = run_campaign(config)
        assert first.ok, first.describe()
        assert first.cases_run == 12
        assert [r.consensus for r in first.case_results] == [
            r.consensus for r in second.case_results
        ]

    def test_parallel_campaign_matches_inline_consensus(self):
        inline = run_campaign(CampaignConfig(cases=12, seed=5, jobs=1, chunk_size=3, **FAST))
        parallel = run_campaign(CampaignConfig(cases=12, seed=5, jobs=2, chunk_size=3, **FAST))
        assert parallel.ok, parallel.describe()
        assert [r.consensus for r in inline.case_results] == [
            r.consensus for r in parallel.case_results
        ]
        # Workers reported their engine-cache deltas.
        assert sum(sum(counts) for counts in parallel.engine_stats.values()) > 0

    def test_time_budget_stops_early(self):
        config = CampaignConfig(
            cases=500, seed=0, jobs=1, chunk_size=1, time_budget=0.2, **FAST
        )
        report = run_campaign(config)
        assert report.cases_run < 500
        assert report.stopped_early
        assert "time budget" in report.describe()

    def test_campaign_corpus_matches_results(self):
        config = CampaignConfig(cases=8, seed=2, jobs=1, **FAST)
        report = run_campaign(config)
        entries = campaign_corpus(report)
        assert len(entries) == 8
        by_case = {f"case-{r.index}": r for r in report.case_results}
        for entry in entries:
            assert entry.expected == by_case[entry.case_id].consensus

    def test_run_case_reports_mutation_checks(self):
        config = CampaignConfig(cases=40, seed=1, mutation_rate=1.0, **FAST)
        checked = 0
        for index in range(8):
            result = run_case(generate_case(config, index), config)
            checked += result.mutation_checked is not None
            assert not result.failures, result.failures
        assert checked > 0


class TestPlantedBug:
    """The acceptance-criteria mutation test: a planted bug must be caught
    and shrunk to a small reproducer."""

    def test_lying_lp_path_is_caught_and_shrunk(self, monkeypatch):
        import repro.core.decision as decision

        original = decision.decide_mpi_via_lp

        def lying_lp(inequality):
            result = original(inequality)
            if result.solvable and len(inequality.to_linear_system()) >= 3:
                return dataclasses.replace(result, solvable=False, witness=None)
            return result

        monkeypatch.setattr(decision, "decide_mpi_via_lp", lying_lp)
        config = CampaignConfig(
            cases=40,
            seed=0,
            jobs=1,
            strategies=("most-general", "all-probes"),
            backends=("interned",),
            mutation_rate=0.0,
        )
        report = run_campaign(config)
        assert not report.ok
        assert any(
            d.kind == "verdict-mismatch" for f in report.failures for d in f.discrepancies
        )
        shrunk = [f.shrunk for f in report.failures if f.shrunk is not None]
        assert shrunk
        for result in shrunk:
            assert result.size[0] <= 3 and result.size[1] <= 3

    def test_corrupted_certificate_is_caught(self, monkeypatch):
        from repro.core import certificates
        import repro.core.decision as decision

        original = certificates.counterexample_from_witness

        def corrupt(encoding, witness):
            certificate = original(encoding, witness)
            return dataclasses.replace(
                certificate, containing_multiplicity=certificate.containing_multiplicity + 1
            )

        monkeypatch.setattr(decision, "counterexample_from_witness", corrupt)
        containee, containing = parse_cq("q1(x) <- R^2(x, x)"), parse_cq("q2(x) <- R(x, x)")
        from repro.verify.oracles import run_differential_oracle

        report = run_differential_oracle(containee, containing, OracleConfig(**FAST))
        assert any(d.kind == "certificate" for d in report.discrepancies)


class TestMutantFailuresInCorpus:
    def test_mutant_failures_are_persisted_and_replayable(self, tmp_path):
        from repro.verify.runner import CampaignFailure, CampaignReport
        from repro.verify.oracles import Discrepancy

        config = CampaignConfig(cases=2, seed=0, jobs=1, **FAST)
        report = run_campaign(config)
        # Graft a mutant failure onto the report: a pair whose recorded
        # expectation contradicts the oracle verdict.
        containee, containing = builtin_pairs()[0]  # consensus: contained
        mutant = CampaignFailure(
            case_id="case-1+amplify-containing",
            origin="builtin[0]+amplify-containing",
            containee=containee,
            containing=containing,
            discrepancies=(Discrepancy("metamorphic", "planted"),),
            expected=False,
        )
        report = dataclasses.replace(report, failures=report.failures + (mutant,))

        entries = campaign_corpus(report)
        assert len(entries) == 3  # 2 base cases + the mutant failure
        extra = entries[-1]
        assert extra.case_id == "case-1+amplify-containing"
        assert extra.expected is False
        assert "failing mutant" in extra.note

        path = save_corpus(entries, tmp_path / "mutant.json")
        failures = replay_corpus(path, OracleConfig(**FAST))
        assert [entry.case_id for entry, _ in failures] == ["case-1+amplify-containing"]
        assert any(d.kind == "verdict-drift" for _, r in failures for d in r.discrepancies)


class TestEnumerationBudget:
    def test_budget_exhaustion_is_a_dedicated_exception(self):
        from repro.core.decision import decide_via_bounded_guess
        from repro.exceptions import ContainmentError, EnumerationBudgetError

        containee = parse_cq("q1(x) <- R^9(x, x), S^9(x, x), T^9(x, x)")
        containing = parse_cq("q2(x) <- R(x, x), S(x, x), T(x, x)")
        with pytest.raises(EnumerationBudgetError):
            decide_via_bounded_guess(containee, containing, max_candidates=5)
        # Still catchable as the broader containment error, for old callers.
        with pytest.raises(ContainmentError):
            decide_via_bounded_guess(containee, containing, max_candidates=5)
