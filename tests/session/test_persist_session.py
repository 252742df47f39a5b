"""``Session(persist_path=...)``: warm starts through the service facade.

These tests cover the wiring the engine-level tests cannot: the session
memo layer (whole decision verdicts and certificates answered from disk),
the spec round-trip that hands parallel workers the same store, and the
CLI surface (``--persist`` on decide/fuzz, the ``cache`` subcommand).
"""

import pickle

import pytest

from repro.queries.parser import parse_cq
from repro.session import Session
from repro.session.session import Limits, SessionSpec

CONTAINEE = "q(x, y) <- R(x, y), R(y, x)"
CONTAINING = "p(x, y) <- R(x, y)"


def outcome_face(outcome):
    """The replay-visible face of an outcome, as comparable bytes."""
    explained = None
    if outcome.value is not None and hasattr(outcome.value, "explain"):
        explained = outcome.value.explain()
    return pickle.dumps(
        (outcome.verdict, repr(outcome.certificate), explained),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


class TestSessionWarmStart:
    def test_second_session_answers_from_the_store(self, tmp_path):
        store = tmp_path / "store.db"
        containee, containing = parse_cq(CONTAINEE), parse_cq(CONTAINING)

        cold = Session(persist_path=store)
        cold_outcome = cold.decide(containee, containing)
        assert cold.persistent.stats.stores >= 1
        cold.close()

        warm = Session(persist_path=store)
        warm_outcome = warm.decide(containee, containing)
        assert warm.persistent.stats.hits >= 1
        assert outcome_face(warm_outcome) == outcome_face(cold_outcome)
        warm.close()

    def test_counterexample_certificates_replay_byte_identically(self, tmp_path):
        store = tmp_path / "store.db"
        # Not-contained pair: the verdict carries a counterexample bag.
        containee = parse_cq("q(x, y) <- R^2(x, y)")
        containing = parse_cq("p(x, y) <- R(x, y)")

        cold = Session(persist_path=store)
        cold_outcome = cold.decide(containee, containing)
        assert cold_outcome.verdict is False
        assert cold_outcome.certificate is not None
        cold.close()

        warm = Session(persist_path=store)
        warm_outcome = warm.decide(containee, containing)
        assert warm.persistent.stats.hits >= 1
        assert outcome_face(warm_outcome) == outcome_face(cold_outcome)
        warm.close()

    def test_renamed_queries_do_not_share_memoised_verdicts(self, tmp_path):
        store = tmp_path / "store.db"
        containee, containing = parse_cq(CONTAINEE), parse_cq(CONTAINING)
        first = Session(persist_path=store)
        first.decide(containee, containing)
        first.close()

        second = Session(persist_path=store)
        outcome = second.decide(containee.with_name("renamed"), containing)
        # The renamed copy must compute fresh (its explain() prints its own
        # name), not hit the original's row.
        assert outcome.value.explain().find("renamed") != -1
        second.close()

    def test_limits_change_invalidates_silently(self, tmp_path):
        store = tmp_path / "store.db"
        containee, containing = parse_cq(CONTAINEE), parse_cq(CONTAINING)
        small = Session(persist_path=store, limits=Limits(bounded_guess_max_candidates=10))
        small.decide(containee, containing)
        small.close()

        large = Session(persist_path=store, limits=Limits(bounded_guess_max_candidates=10_000))
        outcome = large.decide(containee, containing)
        assert outcome.verdict is not None
        assert large.persistent.stats.hits == 0  # different limits: all misses
        large.close()

    def test_backend_change_invalidates_silently(self, tmp_path):
        store = tmp_path / "store.db"
        containee, containing = parse_cq(CONTAINEE), parse_cq(CONTAINING)
        naive = Session(backend="naive", persist_path=store)
        naive_outcome = naive.decide(containee, containing)
        naive.close()

        interned = Session(backend="interned", persist_path=store)
        interned_outcome = interned.decide(containee, containing)
        assert interned.persistent.stats.hits == 0
        assert interned_outcome.verdict == naive_outcome.verdict
        interned.close()

    def test_close_detaches_and_session_stays_usable(self, tmp_path):
        session = Session(persist_path=tmp_path / "store.db")
        containee, containing = parse_cq(CONTAINEE), parse_cq(CONTAINING)
        session.decide(containee, containing)
        session.close()
        assert session.persistent is None
        assert session.decide(containee, containing).verdict is not None
        session.close()  # idempotent

    def test_missing_parent_directories_are_created(self, tmp_path):
        deep = tmp_path / "a" / "b" / "store.db"
        session = Session(persist_path=deep)
        session.decide(parse_cq(CONTAINEE), parse_cq(CONTAINING))
        assert deep.exists()
        session.close()


class TestSpecRoundTrip:
    def test_spec_carries_the_persist_path(self, tmp_path):
        store = tmp_path / "store.db"
        session = Session(persist_path=store)
        spec = session.spec()
        assert spec.persist_path == str(store)
        worker = spec.build()
        assert worker.persistent is not None
        assert worker.persistent.path == store
        worker.close()
        session.close()

    def test_spec_without_persistence_builds_cold_workers(self):
        spec = Session().spec()
        assert spec.persist_path is None
        worker = spec.build()
        assert worker.persistent is None

    def test_spec_pickles_with_the_path(self, tmp_path):
        spec = Session(persist_path=tmp_path / "store.db").spec()
        assert pickle.loads(pickle.dumps(spec)).persist_path == spec.persist_path

    def test_rehydrated_worker_reads_the_parents_rows(self, tmp_path):
        store = tmp_path / "store.db"
        containee, containing = parse_cq(CONTAINEE), parse_cq(CONTAINING)
        parent = Session(persist_path=store)
        parent_outcome = parent.decide(containee, containing)

        worker = parent.spec().build()
        worker_outcome = worker.decide(containee, containing)
        assert worker.persistent.stats.hits >= 1
        assert outcome_face(worker_outcome) == outcome_face(parent_outcome)
        worker.close()
        parent.close()


#: A bag-contained pair (identical bodies), so ``decide`` exits 0.
CLI_CONTAINEE = "q(x, y) <- R(x, y)"
CLI_CONTAINING = "p(x, y) <- R(x, y)"


class TestCliPersist:
    def test_decide_persist_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store.db"
        argv = ["decide", CLI_CONTAINEE, CLI_CONTAINING, "--persist", str(store)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "persist" in cold.err  # stats on stderr, stdout stays clean
        assert store.exists()

        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # byte-identical stdout across runs
        assert "1 hits" in warm.err

    def test_cache_info_vacuum_clear(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store.db"
        assert main(["decide", CLI_CONTAINEE, CLI_CONTAINING, "--persist", str(store)]) == 0
        capsys.readouterr()

        assert main(["cache", "info", str(store)]) == 0
        info = capsys.readouterr().out
        assert "entries:" in info and str(store) in info

        assert main(["cache", "vacuum", str(store)]) == 0
        assert "vacuumed" in capsys.readouterr().out

        assert main(["cache", "clear", str(store)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "info", str(store)]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_maintenance_on_missing_store_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "vacuum", str(tmp_path / "absent.db")]) == 2
        assert "error" in capsys.readouterr().err

    def test_fuzz_persist_smoke(self, tmp_path, capsys):
        from repro.cli import main

        def verdict_lines(text):
            # The campaign report interleaves timings and cache statistics,
            # which legitimately vary run to run; the substance — verdict
            # tallies and discrepancy lines — must not.
            return [
                line
                for line in text.splitlines()
                if line.startswith("verdicts:") or "discrepanc" in line
            ]

        store = tmp_path / "store.db"
        argv = ["fuzz", "--cases", "5", "--seed", "3", "--persist", str(store)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "persist" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert verdict_lines(second.out) == verdict_lines(first.out)
        assert "no discrepancies found" in second.out
