"""Brute-force baselines: bounded and randomised counterexample search.

The paper's decision procedure works through the Diophantine encoding; a
natural baseline (and the obvious semi-decision procedure one would try
before reading the paper) searches directly for a counterexample bag by
enumerating or sampling bags over the canonical instances of the grounded
containee.  These refuters are

* **sound**: any violation they report is a genuine counterexample (it is
  re-verified with the evaluation engine);
* **incomplete**: failing to find a violation within the multiplicity bound
  or the trial budget proves nothing — which is exactly the gap the paper's
  exact procedure closes, and what experiment E9 quantifies.

Every candidate bag shares the same support (the canonical instance of the
grounded containee), so the homomorphisms of both queries are enumerated
exactly once per probe tuple through the engine's
:class:`~repro.engine.batch.BagBatchEvaluator` — the one implementation of
Equation 2, which also serves :func:`check_bag` and certificate replay;
each bag then only re-weights the cached skeletons instead of re-running
the search.  The containee is projection-free, so the probe fixes all of
its variables and its side takes no engine call at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Collection, Iterator, Sequence

from repro.core.certificates import ContainmentCounterexample
from repro.core.probe_tuples import iter_probe_tuples, most_general_probe_tuple
from repro.engine.batch import BagBatchEvaluator, Support
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance, _check_fact
from repro.relational.terms import Term

__all__ = [
    "RefutationOutcome",
    "check_bag",
    "bounded_bag_refuter",
    "random_bag_refuter",
]


@dataclass(frozen=True)
class RefutationOutcome:
    """Result of a (bounded or randomised) counterexample search.

    ``refuted`` tells whether a counterexample was found; ``bags_checked``
    how many candidate bags were evaluated; ``counterexample`` carries the
    violation, if any.  A ``refuted=False`` outcome does **not** establish
    containment.
    """

    refuted: bool
    bags_checked: int
    counterexample: ContainmentCounterexample | None = None

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self.refuted


def check_bag(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    probe: Sequence[Term],
    bag: BagInstance,
) -> ContainmentCounterexample | None:
    """Evaluate both queries on *bag* at the answer *probe* and report a violation."""
    return _ProbeChecker(containee, containing, tuple(probe), bag.support().facts).check(bag)


def _grounded_facts(containee: ConjunctiveQuery, probe: Sequence[Term]) -> tuple[Atom, ...]:
    """The facts of ``I_{q1(t)}``, checked once for every candidate bag over them."""
    return tuple(map(_check_fact, containee.ground(probe).body_atoms()))


def _bags_over(
    atoms: Sequence[Atom], max_multiplicity: int, include_zero: bool
) -> Iterator[BagInstance]:
    """Every bag over the checked *atoms* with multiplicities in range (zeros dropped)."""
    lowest = 0 if include_zero else 1
    for values in product(range(lowest, max_multiplicity + 1), repeat=len(atoms)):
        if all(value == 0 for value in values):
            continue
        yield BagInstance._trusted({atom: value for atom, value in zip(atoms, values) if value})


class _ProbeChecker:
    """Per-probe violation check with the homomorphism search hoisted out.

    Both queries are evaluated once against the support of the grounded
    containee: the containing query's factors through the engine, the
    containee (whose variables the probe fixes all) by looking its grounded
    atoms up in the support.  Both evaluators share one numbered
    :class:`~repro.engine.batch.Support`.  Each skeleton holds the support
    numbers of a homomorphism's images with the body multiplicities, so
    checking a candidate bag reads its multiplicities once, for both
    sides, into a list aligned with the support and re-weights the cached
    skeletons (no search, no substitutions, no atoms).
    """

    __slots__ = ("probe", "_support", "_left", "_right")

    def __init__(
        self,
        containee: ConjunctiveQuery,
        containing: ConjunctiveQuery,
        probe: tuple[Term, ...],
        support_atoms: Collection,
    ) -> None:
        self.probe = probe
        self._support = Support(support_atoms)
        self._left = BagBatchEvaluator(containee, self._support, answer=probe)
        self._right = BagBatchEvaluator(containing, self._support, answer=probe)

    def check(self, bag: BagInstance) -> ContainmentCounterexample | None:
        weights = self._support.weights(bag)
        left = self._left.multiplicity_at(weights)
        right = self._right.multiplicity_at(weights)
        if left > right:
            return ContainmentCounterexample(
                probe=self.probe,
                bag=bag,
                containee_multiplicity=left,
                containing_multiplicity=right,
            )
        return None


def bounded_bag_refuter(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    max_multiplicity: int = 3,
    all_probes: bool = False,
    include_zero: bool = False,
) -> RefutationOutcome:
    """Exhaustively search for a counterexample bag with bounded multiplicities.

    For the most-general probe tuple (or every probe tuple when *all_probes*
    is set), every bag over the canonical instance of the grounded containee
    with per-fact multiplicities in ``[1, max_multiplicity]`` (or
    ``[0, max_multiplicity]`` when *include_zero* is set) is evaluated.  The
    search cost is ``max_multiplicity^|body|`` per probe tuple.
    """
    containee.require_projection_free()
    probes = iter_probe_tuples(containee) if all_probes else iter((most_general_probe_tuple(containee),))
    bags_checked = 0
    for probe in probes:
        atoms = _grounded_facts(containee, probe)
        checker = _ProbeChecker(containee, containing, tuple(probe), atoms)
        for bag in _bags_over(atoms, max_multiplicity, include_zero):
            bags_checked += 1
            violation = checker.check(bag)
            if violation is not None:
                return RefutationOutcome(True, bags_checked, violation)
    return RefutationOutcome(False, bags_checked)


def random_bag_refuter(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    trials: int = 200,
    max_multiplicity: int = 6,
    seed: int | None = None,
) -> RefutationOutcome:
    """Randomly sample bags over the most-general canonical instance.

    Each trial draws independent multiplicities uniformly from
    ``[1, max_multiplicity]``.  Useful as a cheap smoke test and as the
    "guess until lucky" baseline of experiment E9.
    """
    containee.require_projection_free()
    rng = random.Random(seed)
    probe = most_general_probe_tuple(containee)
    atoms = _grounded_facts(containee, probe)
    checker = _ProbeChecker(containee, containing, probe, atoms)
    for trial in range(1, trials + 1):
        bag = BagInstance._trusted({atom: rng.randint(1, max_multiplicity) for atom in atoms})
        violation = checker.check(bag)
        if violation is not None:
            return RefutationOutcome(True, trial, violation)
    return RefutationOutcome(False, trials)
