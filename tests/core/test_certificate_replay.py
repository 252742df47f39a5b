"""Certificate replay: every negative verdict must verify under bag evaluation.

For each hand-written pair and each of the three decision strategies, any
:class:`ContainmentCounterexample` the strategy produces is replayed through
the bag-evaluation engine directly (not just via ``verify``), pinning the
end-to-end guarantee of Theorem 4.1's construction: the stored
multiplicities are exactly what Equation 2 computes, and they witness a
strict violation.
"""

import pytest

from repro.core.decision import (
    decide_via_all_probes,
    decide_via_bounded_guess,
    decide_via_most_general_probe,
)
from repro.evaluation.bag_evaluation import bag_multiplicity
from repro.verify.corpus import BUILTIN_PAIR_TEXTS, builtin_pairs

STRATEGY_FUNCTIONS = {
    "most-general": decide_via_most_general_probe,
    "all-probes": decide_via_all_probes,
    "bounded-guess": decide_via_bounded_guess,
}


@pytest.mark.parametrize("pair_index", range(len(BUILTIN_PAIR_TEXTS)))
@pytest.mark.parametrize("strategy", sorted(STRATEGY_FUNCTIONS))
def test_negative_verdicts_replay_under_direct_bag_evaluation(pair_index, strategy):
    containee, containing = builtin_pairs()[pair_index]
    result = STRATEGY_FUNCTIONS[strategy](containee, containing)
    if result.contained:
        assert result.counterexample is None
        return

    certificate = result.counterexample
    assert certificate is not None, f"{strategy} produced a bare negative verdict"

    # Replay both multiplicities from scratch with the evaluation engine.
    left = bag_multiplicity(containee, certificate.bag, certificate.probe)
    right = bag_multiplicity(containing, certificate.bag, certificate.probe)
    assert left == certificate.containee_multiplicity
    assert right == certificate.containing_multiplicity
    assert left > right, "certificate does not witness a violation"
    assert certificate.margin() == left - right >= 1

    # The library's own verifier agrees.
    assert certificate.verify(containee, containing)


@pytest.mark.parametrize("pair_index", range(len(BUILTIN_PAIR_TEXTS)))
def test_strategies_produce_equally_valid_certificates(pair_index):
    """All strategies that answer 'not contained' must all ship replayable bags."""
    containee, containing = builtin_pairs()[pair_index]
    verdicts = {}
    for strategy, decide in STRATEGY_FUNCTIONS.items():
        result = decide(containee, containing)
        verdicts[strategy] = result.contained
        if not result.contained:
            assert result.counterexample is not None
            assert result.counterexample.verify(containee, containing)
    assert len(set(verdicts.values())) == 1, f"strategies disagree: {verdicts}"


def test_a_wrong_factor_class_map_fails_the_replay(monkeypatch):
    # The replay enumerates every factor itself, so an encoding that shares
    # a table between two factors that are not renamed copies predicts a
    # containing multiplicity the replay does not reproduce.
    from repro.engine import batch
    from repro.exceptions import CertificateError
    from repro.queries.parser import parse_cq
    from repro.session import Session

    containee = parse_cq("q1(x) <- R^3(x, a), R^3(x, b), S(a, a)")
    containing = parse_cq("q2(x) <- R(x, z1), R(x, z2), S(z2, z2), R(x, z3)")
    assert batch.ContainmentMappingBatcher(containing).classes == (0, 1, 2)
    assert Session(memoize=False).decide(containee, containing).certificate.verify(containee, containing)
    monkeypatch.setattr(batch, "_factor_classes", lambda query, factors: (0, 1, 1))
    with pytest.raises(CertificateError, match="do not match a direct evaluation"):
        Session(memoize=False).decide(containee, containing)


@pytest.fixture
def bag_reads(monkeypatch):
    """Count support numberings, ``Support.weights`` calls and single-fact bag reads."""
    from repro.engine import batch
    from repro.relational.instances import BagInstance

    counts = {"numberings": 0, "weights": 0, "facts": 0}
    number, weights, read = batch.Support.__init__, batch.Support.weights, BagInstance.__getitem__

    def counting_number(self, atoms):
        counts["numberings"] += 1
        number(self, atoms)

    def counting_weights(self, bag):
        counts["weights"] += 1
        return weights(self, bag)

    def counting_read(self, fact):
        counts["facts"] += 1
        return read(self, fact)

    monkeypatch.setattr(batch.Support, "__init__", counting_number)
    monkeypatch.setattr(batch.Support, "weights", counting_weights)
    monkeypatch.setattr(BagInstance, "__getitem__", counting_read)
    return counts


def test_the_replay_reads_each_bag_once_for_both_sides(bag_reads):
    from repro.queries.parser import parse_cq

    pairs = list(builtin_pairs()) + [
        (
            parse_cq("q1(x) <- R^3(x, a), R^3(x, b), S(a, a)"),
            parse_cq("q2(x) <- R(x, z1), R(x, z2), S(z2, z2), R(x, z3)"),
        )
    ]
    replayed = 0
    for containee, containing in pairs:
        result = decide_via_most_general_probe(containee, containing)
        if result.contained:
            continue
        certificate = result.counterexample
        bag_reads.update(dict.fromkeys(bag_reads, 0))
        assert certificate.verify(containee, containing)
        assert bag_reads == {"numberings": 1, "weights": 1, "facts": len(certificate.bag)}
        replayed += 1
    assert replayed >= 2


def test_the_probe_checks_read_each_bag_once_for_both_sides(bag_reads):
    from repro.baselines.refuters import bounded_bag_refuter, check_bag
    from repro.core.probe_tuples import iter_probe_tuples, most_general_probe_tuple
    from repro.workloads.paper_examples import section2_q1, section2_q2

    containee, containing = section2_q1(), section2_q2()
    outcome = bounded_bag_refuter(containee, containing, 3, all_probes=True)
    assert not outcome.refuted
    probes = len(list(iter_probe_tuples(containee)))
    assert bag_reads["numberings"] == probes
    assert bag_reads["weights"] == outcome.bags_checked

    counterexample = bounded_bag_refuter(containing, containee, 2).counterexample
    bag_reads.update(dict.fromkeys(bag_reads, 0))
    probe = most_general_probe_tuple(containing)
    assert check_bag(containing, containee, probe, counterexample.bag) is not None
    assert bag_reads == {"numberings": 1, "weights": 1, "facts": len(counterexample.bag)}
