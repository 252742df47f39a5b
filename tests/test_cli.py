"""Tests for the ``bagcq`` command line interface."""

import pytest

from repro.cli import build_parser, main


class TestDecide:
    def test_positive_containment_exits_zero(self, capsys):
        code = main(
            [
                "decide",
                "q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)",
                "q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "⊑b" in captured.out

    def test_negative_containment_exits_one_and_prints_a_counterexample(self, capsys):
        code = main(
            [
                "decide",
                "q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)",
                "q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "counterexample" in captured.out

    def test_verbose_prints_the_encoding(self, capsys):
        code = main(
            [
                "decide",
                "--verbose",
                "q1(x) <- R(x, x)",
                "q2(x) <- R(x, x), R(x, y)",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "monomial" in captured.out

    def test_alternative_strategy(self, capsys):
        code = main(
            [
                "decide",
                "--strategy",
                "all-probes",
                "q1(x) <- R(x, x)",
                "q2(x) <- R(x, x)",
            ]
        )
        assert code == 0
        assert "all-probes" in capsys.readouterr().out

    def test_projection_in_the_containee_is_a_clean_error(self, capsys):
        code = main(["decide", "q1(x) <- R(x, y)", "q2(x) <- R(x, x)"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err


class TestOtherCommands:
    def test_set_decide(self, capsys):
        code = main(["set-decide", "q1(x) <- R(x, x)", "q2(x) <- R(x, y)"])
        assert code == 0
        assert "⊑s" in capsys.readouterr().out

    def test_evaluate(self, capsys):
        code = main(["evaluate", "q(x) <- R(x, y)", "R(a,b)=2", "R(a,c)=3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "(a)^5" in captured.out

    def test_evaluate_rejects_non_ground_facts(self, capsys):
        code = main(["evaluate", "q(x) <- R(x, y)", "R(a,x)=2"])
        assert code == 2

    def test_evaluate_rejects_bad_multiplicities(self, capsys):
        code = main(["evaluate", "q(x) <- R(x, y)", "R(a,b)=lots"])
        assert code == 2

    def test_encode(self, capsys):
        code = main(
            [
                "encode",
                "q1(x1, x2) <- R^2(x1, x2), R(c1, x2), R^3(x1, c2)",
                "q2(x1, x2) <- R^3(x1, x2), R^2(x1, y1), R^2(y2, y1)",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "monomial" in captured.out and "polynomial" in captured.out

    def test_compare_equivalent_queries_exits_zero(self, capsys):
        code = main(["compare", "q(x) <- R(x, x), S(x)", "p(x) <- S(x), R(x, x)"])
        captured = capsys.readouterr()
        assert code == 0
        assert "bag-equivalent" in captured.out

    def test_compare_non_equivalent_queries_exits_one(self, capsys):
        code = main(
            [
                "compare",
                "q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)",
                "q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "bag-contained" in captured.out

    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestEngineFlags:
    def test_naive_backend_gives_the_same_verdict(self, capsys):
        args = [
            "decide",
            "q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)",
            "q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)",
        ]
        assert main(["--engine-backend", "naive"] + args) == 0
        naive_out = capsys.readouterr().out
        assert main(["--engine-backend", "interned"] + args) == 0
        interned_out = capsys.readouterr().out
        assert naive_out == interned_out

    def test_backend_selection_is_restored_after_the_command(self):
        from repro.engine import get_default_backend

        main(["--engine-backend", "naive", "set-decide", "q1(x) <- R(x, x)", "q2(x) <- R(x, y)"])
        assert get_default_backend().name == "interned"

    def test_engine_stats_are_printed(self, capsys):
        code = main(["--engine-stats", "evaluate", "q(x) <- R(x, y)", "R(a,b)=2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "engine cache statistics" in captured.out
        assert "plans" in captured.out

    def test_engine_stats_are_printed_even_on_errors(self, capsys):
        code = main(["--engine-stats", "decide", "q1(x) <- R(x, y)", "q2(x) <- R(x, x)"])
        captured = capsys.readouterr()
        assert code == 2
        assert "engine cache statistics" in captured.out

    @pytest.mark.parametrize("name", ["quantum", "indexed", "generated"])
    def test_unknown_backend_is_rejected_by_argparse(self, capsys, name):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(["--engine-backend", name, "set-decide", "a", "b"])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: {name!r}" in err
        assert "'naive', 'interned'" in err
        assert "Traceback" not in err


class TestDecideBatch:
    @pytest.fixture()
    def corpus(self, tmp_path):
        """A small saved corpus to batch-decide."""
        path = str(tmp_path / "batch-corpus.json")
        code = main(
            [
                "fuzz",
                "--cases", "6",
                "--seed", "2",
                "--strategies", "most-general",
                "--mutation-rate", "0",
                "--no-shrink",
                "--save-corpus", path,
            ]
        )
        assert code == 0
        return path

    def test_batch_decides_every_pair_in_order(self, capsys, corpus):
        capsys.readouterr()
        code = main(["decide", "--batch", corpus])
        captured = capsys.readouterr()
        assert code == 0
        lines = [line for line in captured.out.splitlines() if line.startswith("case-")]
        assert [line.split(":")[0] for line in lines] == [f"case-{i}" for i in range(6)]
        assert "6 pairs" in captured.out

    def test_batch_with_jobs_matches_serial_output(self, capsys, corpus):
        capsys.readouterr()
        assert main(["decide", "--batch", corpus]) == 0
        serial = capsys.readouterr().out

        assert main(["decide", "--batch", corpus, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def verdicts(text):
            return [
                line.split(":")[1].split("[")[0].strip()
                for line in text.splitlines()
                if line.startswith("case-")
            ]

        assert verdicts(parallel) == verdicts(serial)
        assert "jobs=2" in parallel

    def test_batch_rejects_inline_queries(self, capsys, corpus):
        code = main(["decide", "--batch", corpus, "q(x) <- R(x, x)", "q(x) <- R(x, x)"])
        captured = capsys.readouterr()
        assert code == 2
        assert "not both" in captured.err

    def test_decide_without_queries_or_batch_is_a_clean_error(self, capsys):
        code = main(["decide"])
        captured = capsys.readouterr()
        assert code == 2
        assert "decide needs two inline queries" in captured.err


class TestFuzz:
    def test_smoke_campaign_is_clean(self, capsys):
        code = main(
            [
                "fuzz",
                "--cases", "6",
                "--seed", "0",
                "--strategies", "most-general,all-probes",
                "--mutation-rate", "0",
                "--no-shrink",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "no discrepancies found" in captured.out
        assert "6/6 cases" in captured.out

    def test_save_and_replay_corpus(self, capsys, tmp_path):
        corpus = str(tmp_path / "corpus.json")
        code = main(
            [
                "fuzz",
                "--cases", "4",
                "--seed", "1",
                "--strategies", "most-general",
                "--mutation-rate", "0",
                "--no-shrink",
                "--save-corpus", corpus,
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "corpus saved" in captured.out

        code = main(["fuzz", "--replay", corpus])
        captured = capsys.readouterr()
        assert code == 0
        assert "replay clean" in captured.out

    def test_replay_of_a_drifted_corpus_fails(self, capsys, tmp_path):
        import json

        corpus = str(tmp_path / "drift.json")
        main(
            [
                "fuzz",
                "--cases", "3",
                "--seed", "2",
                "--strategies", "most-general",
                "--mutation-rate", "0",
                "--no-shrink",
                "--save-corpus", corpus,
            ]
        )
        capsys.readouterr()
        document = json.loads(open(corpus).read())
        flipped = False
        for entry in document["entries"]:
            if entry["expected"] is not None:
                entry["expected"] = not entry["expected"]
                flipped = True
        assert flipped
        open(corpus, "w").write(json.dumps(document))

        code = main(["fuzz", "--replay", corpus])
        captured = capsys.readouterr()
        assert code == 1
        assert "verdict-drift" in captured.out

    def test_backend_subset_campaign_is_clean(self, capsys):
        code = main(
            [
                "fuzz",
                "--cases", "5",
                "--seed", "3",
                "--backends", "interned",
                "--strategies", "most-general",
                "--mutation-rate", "0",
                "--no-shrink",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "no discrepancies found" in captured.out
        assert "5/5 cases" in captured.out

    def test_unknown_strategy_is_a_clean_error(self, capsys):
        code = main(["fuzz", "--cases", "1", "--strategies", "telepathy"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    @pytest.mark.parametrize("name", ["gpu", "indexed", "generated"])
    def test_unknown_backend_is_a_clean_error(self, capsys, name):
        code = main(["fuzz", "--cases", "1", "--backends", name])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: unknown backend {name!r}" in captured.err
        assert "'naive', 'interned'" in captured.err
        assert "Traceback" not in captured.err

    def test_replay_rejects_save_corpus(self, capsys, tmp_path):
        code = main(
            ["fuzz", "--replay", str(tmp_path / "c.json"), "--save-corpus", str(tmp_path / "d.json")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--save-corpus cannot be combined with --replay" in captured.err


class TestProfile:
    def test_profiles_a_named_workload(self, capsys):
        code = main(
            ["--engine-backend", "interned", "profile", "chain", "--cases", "5", "--top", "5"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "profiled 5 'chain' decisions on the interned backend" in captured.out
        assert "cumulative" in captured.out

    def test_sort_by_tottime(self, capsys):
        code = main(["profile", "star", "--cases", "3", "--top", "3", "--sort", "tottime"])
        captured = capsys.readouterr()
        assert code == 0
        assert "internal time" in captured.out

    def test_unknown_workload_is_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "fibonacci"])


class TestLint:
    def test_repo_tree_is_clean_in_check_mode(self, capsys):
        code = main(["lint", "--check", "src/repro"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""

    def test_findings_are_printed_and_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "module.py"
        bad.write_text("CACHE = {}\n")
        code = main(["lint", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "[global-mutable-state]" in captured.out

    def test_rule_filter_and_listing(self, capsys, tmp_path):
        bad = tmp_path / "module.py"
        bad.write_text("CACHE = {}\ndef f(a=[]):\n    pass\n")
        assert main(["lint", "--rule", "bare-except", str(bad)]) == 0
        capsys.readouterr()
        code = main(["lint", "--list-rules"])
        captured = capsys.readouterr()
        assert code == 0
        assert "set-order-iteration" in captured.out

    def test_unknown_rule_is_a_clean_error(self, capsys):
        code = main(["lint", "--rule", "no-such-rule", "src/repro"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_timing_line_is_printed_in_normal_mode(self, capsys, tmp_path):
        clean = tmp_path / "module.py"
        clean.write_text("def f():\n    return 1\n")
        code = main(["lint", str(clean)])
        captured = capsys.readouterr()
        assert code == 0
        assert "one parse per file" in captured.out

    def test_timing_line_goes_to_stderr_in_check_mode(self, capsys, tmp_path):
        clean = tmp_path / "module.py"
        clean.write_text("def f():\n    return 1\n")
        code = main(["lint", "--check", str(clean)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "one parse per file" in captured.err


class TestAnalyze:
    def test_repo_tree_is_clean_in_check_mode(self, capsys):
        code = main(["analyze", "--check", "src/repro"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "one parse per file" in captured.err

    def test_seeded_defect_is_reported_and_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "module.py"
        bad.write_text(
            "import json\n"
            "def f(s: set):\n"
            "    xs = list(s)\n"
            "    return json.dumps(xs)\n"
        )
        code = main(["analyze", "--no-schema-lock", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "[determinism-taint]" in captured.out

    def test_rule_filter_selects_one_analyzer(self, capsys, tmp_path):
        bad = tmp_path / "module.py"
        bad.write_text(
            "import json\n"
            "def f(s: set):\n"
            "    xs = list(s)\n"
            "    return json.dumps(xs)\n"
        )
        code = main(
            ["analyze", "--no-schema-lock", "--rule", "fork-unpicklable", str(bad)]
        )
        assert code == 0  # the taint defect is outside the selected analyzer

    def test_explain_prints_the_rationale(self, capsys):
        code = main(["analyze", "--explain", "determinism-taint"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("determinism-taint:")
        assert len(captured.out.splitlines()) > 2  # summary + extended rationale

    def test_list_rules_shows_the_analyzers(self, capsys):
        code = main(["analyze", "--list-rules"])
        captured = capsys.readouterr()
        assert code == 0
        assert "fork-unpicklable" in captured.out
        assert "fork-shared-state" in captured.out

    def test_unknown_analyzer_is_a_clean_error(self, capsys):
        code = main(["analyze", "--rule", "no-such-analyzer", "src/repro"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_write_schema_lock_round_trips(self, capsys, tmp_path):
        lock = tmp_path / "persist-schema.lock"
        clean = tmp_path / "module.py"
        clean.write_text("def f():\n    return 1\n")
        code = main(["analyze", "--write-schema-lock", "--schema-lock", str(lock)])
        captured = capsys.readouterr()
        assert code == 0
        assert "schema lock written" in captured.out
        assert lock.exists()
        code = main(["analyze", "--schema-lock", str(lock), str(clean)])
        captured = capsys.readouterr()
        assert code == 0
        assert "lock matches" in captured.out

    def test_missing_schema_lock_fails_the_check(self, capsys, tmp_path):
        clean = tmp_path / "module.py"
        clean.write_text("def f():\n    return 1\n")
        code = main(["analyze", "--schema-lock", str(tmp_path / "absent.lock"), str(clean)])
        captured = capsys.readouterr()
        assert code == 1
        assert "persist-schema:" in captured.out


class TestCacheVacuum:
    @staticmethod
    def _seeded_store(tmp_path):
        from repro.engine.persist import PersistentCache

        path = tmp_path / "store.db"
        store = PersistentCache(path)
        for index in range(5):
            assert store.store("results", ("session", f"memo-{index}"), {"n": index})
        store.close()
        return path

    def test_prune_lru_keeps_the_requested_entries(self, capsys, tmp_path):
        path = self._seeded_store(tmp_path)
        code = main(["cache", "vacuum", str(path), "--prune-lru", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "3 entries pruned, vacuumed" in captured.out
        assert main(["cache", "info", str(path)]) == 0
        assert "entries: 2" in capsys.readouterr().out

    def test_prune_age_zero_days_drops_everything(self, capsys, tmp_path):
        path = self._seeded_store(tmp_path)
        code = main(["cache", "vacuum", str(path), "--prune-age", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "5 entries pruned, vacuumed" in captured.out

    def test_prune_flags_reject_other_actions(self, capsys, tmp_path):
        path = self._seeded_store(tmp_path)
        code = main(["cache", "info", str(path), "--prune-lru", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "only apply to the vacuum action" in captured.err


class TestCacheDiagnostics:
    """Satellite: missing/corrupt stores get clean diagnostics, no traceback."""

    @pytest.mark.parametrize("action", ["info", "vacuum", "clear"])
    def test_missing_path_is_a_clean_error(self, capsys, tmp_path, action):
        code = main(["cache", action, str(tmp_path / "absent.db")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no persistent store at" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "absent.db").exists()  # info must not create one

    def test_corrupt_store_info_exits_nonzero_with_status(self, capsys, tmp_path):
        path = tmp_path / "corrupt.db"
        path.write_bytes(b"this is not a sqlite file, not even close....")
        code = main(["cache", "info", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "(unavailable)" in captured.out
        assert "sessions fall back to in-memory caching" in captured.err
        assert "Traceback" not in captured.err

    def test_info_reports_the_breaker(self, capsys, tmp_path):
        from repro.engine.persist import PersistentCache

        path = tmp_path / "store.db"
        PersistentCache(path).close()
        code = main(["cache", "info", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "breaker:  closed (0 opens, 0 half-opens, 0 closes)" in captured.out


class TestChaosCommand:
    def test_small_campaign_exits_zero_and_reports_the_invariant(self, capsys):
        code = main(
            ["chaos", "--cases", "12", "--seed", "2", "--schedule", "worker", "--jobs", "2"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "chaos campaign (worker): 12 decisions" in captured.out
        assert "0 silently wrong" in captured.out
        assert "invariant holds" in captured.out


class TestDeadlineFlag:
    def test_deadline_degrades_batch_entries_honestly(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        code = main(["fuzz", "--cases", "3", "--seed", "1", "--save-corpus", str(corpus)])
        capsys.readouterr()
        assert code == 0
        # Injected admission latency keyed to the first request exhausts its
        # 1ms budget however fast the machine is; every degraded entry must
        # say so rather than claim "not contained".
        from repro.faults import FaultPlan, FaultRule, use_faults

        slow_first = FaultPlan(
            rules=(FaultRule("session.execute", "latency", keys=(0,), delay_ms=20.0),)
        )
        with use_faults(slow_first):
            code = main(["--deadline-ms", "1", "decide", "--batch", str(corpus)])
        captured = capsys.readouterr()
        assert code == 0  # degraded is honest, not an error
        assert "degraded (deadline)" in captured.out
        assert "degraded," in captured.out.splitlines()[-1]

    def test_generous_deadline_output_matches_undeadlined_run(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["fuzz", "--cases", "4", "--seed", "3", "--save-corpus", str(corpus)]) == 0
        capsys.readouterr()
        import re

        def run(argv):
            code = main(argv)
            out = capsys.readouterr().out
            return code, re.sub(r"\[\d+\.\dms\]", "[ms]", out)

        plain = run(["decide", "--batch", str(corpus)])
        bounded = run(["--deadline-ms", "600000", "decide", "--batch", str(corpus)])
        assert plain == bounded
