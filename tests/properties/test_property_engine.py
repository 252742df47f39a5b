"""Property tests: the interned engine agrees with the naive reference.

Random CQ/instance pairs (and raw atom-set pairs, which also exercise
variables in the target as containment mappings do) must yield identical
results from the naive and interned backends in all three execution
modes, and a memoising cache must never change an answer.  Together the
properties in :class:`TestBackendEquivalence` run 300 random cases per
suite execution; :class:`TestInternedDecisionEquivalence` adds another 300
seeded adversarial decisions proving the interned backend is verdict-,
certificate- and count-identical to the naive reference across all three
decision strategies.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineCache, InternedBackend, get_backend
from repro.evaluation.bag_evaluation import evaluate_bag
from repro.relational.atoms import Atom
from repro.relational.terms import Constant, Variable

from tests.properties.strategies import atoms, bag_instances, queries_over_shared_head

_EXAMPLES = 75


def atom_sets(max_size: int, term_strategy=None):
    return st.lists(atoms(term_strategy), min_size=0, max_size=max_size)


def fixed_bindings():
    variables = [Variable(name) for name in ("x", "y")]
    images = [Constant("a"), Constant("b"), Variable("z")]
    return st.dictionaries(st.sampled_from(variables), st.sampled_from(images), max_size=2)


def _multiset(substitutions) -> Counter:
    return Counter(repr(substitution) for substitution in substitutions)


class TestBackendEquivalence:
    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(source=atom_sets(3), target=atom_sets(5), fixed=fixed_bindings())
    def test_iterate_agrees_as_multisets(self, source, target, fixed):
        naive = _multiset(get_backend("naive").iterate(source, target, fixed))
        assert _multiset(get_backend("interned").iterate(source, target, fixed)) == naive

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(source=atom_sets(3), target=atom_sets(5), fixed=fixed_bindings())
    def test_count_and_exists_agree(self, source, target, fixed):
        naive = get_backend("naive")
        count = naive.count(source, target, fixed)
        interned = get_backend("interned")
        assert interned.count(source, target, fixed) == count
        assert interned.exists(source, target, fixed) == (count > 0)

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(query=queries_over_shared_head(), bag=bag_instances())
    def test_query_evaluation_agrees_across_backends(self, query, bag):
        from repro.engine import use_backend

        with use_backend("naive"):
            expected = evaluate_bag(query, bag)
        with use_backend("interned"):
            assert evaluate_bag(query, bag) == expected

    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(source=atom_sets(3), target=atom_sets(5), fixed=fixed_bindings())
    def test_cached_and_uncached_results_agree(self, source, target, fixed):
        naive = get_backend("naive")
        expected_count = naive.count(source, target, fixed)
        expected_exists = naive.exists(source, target, fixed)
        warm = InternedBackend(cache=EngineCache())
        # First call populates the cache, second call must hit it.
        assert warm.count(source, target, fixed) == expected_count
        assert warm.count(source, target, fixed) == expected_count
        assert warm.exists(source, target, fixed) == expected_exists
        assert warm.exists(source, target, fixed) == expected_exists
        assert warm.cache.result_stats.hits >= 2


#: (strategy, backend) grid for the interned decision-equivalence sweep;
#: bounded-guess is covered on a seed slice to stay inside the test budget.
_DECISION_CASES = 300
_STRATEGY_GRID = ("most-general", "all-probes", "bounded-guess")


class TestInternedDecisionEquivalence:
    """300 adversarial decisions: both backends agree, all strategies.

    Adversarial pairs (shared core, one perturbed multiplicity) are the
    regime where the decision procedures have least slack; each seed is
    decided by every backend under one strategy, rotating through the
    grid, and verdicts, certificates and encoding mapping counts must be
    identical across the two backends.
    """

    @pytest.mark.parametrize("chunk", range(10))
    def test_interned_decisions_match_naive(self, chunk):
        from repro.core.decision import decide_bag_containment
        from repro.engine import use_backend
        from repro.exceptions import EnumerationBudgetError
        from repro.workloads.random_queries import random_adversarial_pair

        per_chunk = _DECISION_CASES // 10
        for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
            strategy = _STRATEGY_GRID[seed % len(_STRATEGY_GRID)]
            num_atoms = 2 if strategy == "bounded-guess" else 3
            containee, containing = random_adversarial_pair(
                seed, num_atoms=num_atoms, head_size=2
            )
            results = {}
            skipped = False
            for backend in ("naive", "interned"):
                try:
                    with use_backend(backend):
                        results[backend] = decide_bag_containment(
                            containee, containing, strategy=strategy, max_candidates=20_000
                        )
                except EnumerationBudgetError:
                    skipped = True
                    break
            if skipped:
                continue
            context = f"seed={seed} strategy={strategy}"
            verdicts = {name: result.contained for name, result in results.items()}
            assert len(set(verdicts.values())) == 1, f"{context}: {verdicts}"
            reference, interned = results["naive"], results["interned"]
            assert interned.counterexample == reference.counterexample, (
                f"{context}: certificate diverges"
            )
            assert interned.reason == reference.reason, context
            assert len(interned.encodings) == len(reference.encodings), context
            for mine, theirs in zip(interned.encodings, reference.encodings):
                assert mine.num_mappings == theirs.num_mappings, (
                    f"{context}: mapping count diverges"
                )
