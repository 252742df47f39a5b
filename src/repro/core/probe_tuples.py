"""Probe tuples (Definition 3.1) and the most-general probe tuple.

A probe tuple for a CQ ``q(x)`` is a tuple ``t`` of constants drawn from the
active domain of the canonical instance ``I_{q(x)}`` — i.e. the canonical
constants of the query's variables plus its language constants — that is
unifiable with the head ``x`` (consistent on repeated head variables).

The *most-general* probe tuple ``t⋆`` is the tuple of canonical constants of
the head variables themselves; Theorem 5.3 shows that deciding the single
MPI associated with ``t⋆`` suffices for bag containment.  The full
enumeration (and its reduction modulo renamings of the canonical constants,
mentioned after Definition 3.1) is kept for the Corollary 3.1 reference
path and for the test-suite's cross-checks.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from repro.exceptions import UnificationError
from repro.queries.cq import ConjunctiveQuery
from repro.relational.substitutions import unify_tuples
from repro.relational.terms import CanonicalConstant, Term, canonical

__all__ = [
    "most_general_probe_tuple",
    "probe_domain",
    "iter_probe_tuples",
    "probe_tuples",
    "is_probe_tuple",
    "canonical_probe_representative",
    "reduced_probe_tuples",
]


def most_general_probe_tuple(query: ConjunctiveQuery) -> tuple[Term, ...]:
    """``t⋆``: the head variables frozen to their canonical constants."""
    return tuple(canonical(variable) for variable in query.head)


def probe_domain(query: ConjunctiveQuery) -> tuple[Term, ...]:
    """The constants a probe tuple may use: ``adom(I_{q(x)})``.

    This is the set of canonical constants of *all* query variables together
    with the language constants of the query, in a deterministic order.
    """
    domain = set(query.canonical_instance().active_domain())
    return tuple(sorted(domain, key=str))


def is_probe_tuple(query: ConjunctiveQuery, candidate: Sequence[Term]) -> bool:
    """Check both conditions of Definition 3.1 for *candidate*."""
    candidate = tuple(candidate)
    if len(candidate) != query.arity:
        return False
    domain = set(probe_domain(query))
    if any(term not in domain for term in candidate):
        return False
    try:
        unify_tuples(query.head, candidate)
    except UnificationError:
        return False
    return True


def iter_probe_tuples(query: ConjunctiveQuery) -> Iterator[tuple[Term, ...]]:
    """Enumerate every probe tuple of *query* (Definition 3.1), lazily.

    A probe tuple assigns one value per distinct head variable, so there are
    ``|adom(I_q)|^k`` of them for ``k`` distinct head variables: this
    enumeration is exponential in that number, and the main decision path
    never needs it (Theorem 5.3).  Values are chosen per distinct variable,
    in first-occurrence order, and copied to every position the variable
    holds, so unifiability holds by construction.  The order is the
    lexicographic order over head positions, the order of filtering the
    full ``product(domain, repeat=arity)``, without ever building a
    candidate that fails the filter.
    """
    domain = probe_domain(query)
    variables = tuple(dict.fromkeys(query.head))
    positions = tuple(map(variables.index, query.head))
    for values in product(domain, repeat=len(variables)):
        yield tuple(values[index] for index in positions)


def probe_tuples(query: ConjunctiveQuery) -> tuple[tuple[Term, ...], ...]:
    """All probe tuples of *query*, materialised in a deterministic order."""
    return tuple(iter_probe_tuples(query))


def canonical_probe_representative(probe: Sequence[Term]) -> tuple[Term, ...]:
    """The representative of *probe* modulo renaming of canonical constants.

    Two probe tuples are isomorphic (in the sense sketched after
    Definition 3.1) when one is obtained from the other by a bijection that
    fixes the language constants and permutes the canonical constants.  The
    representative renames the canonical constants occurring in the tuple,
    in order of first appearance, to the fixed names ``#1, #2, ...`` —
    isomorphic tuples share a representative.
    """
    renaming: dict[CanonicalConstant, CanonicalConstant] = {}
    representative: list[Term] = []
    for term in probe:
        if isinstance(term, CanonicalConstant):
            if term not in renaming:
                renaming[term] = CanonicalConstant(f"#{len(renaming) + 1}")
            representative.append(renaming[term])
        else:
            representative.append(term)
    return tuple(representative)


def reduced_probe_tuples(query: ConjunctiveQuery) -> tuple[tuple[Term, ...], ...]:
    """One probe tuple per isomorphism class (canonical-constant renamings).

    For the example of Section 3 this turns the 16 probe tuples of
    ``q(x1, x2) ← R(x1, x2), R(c1, x2), R(x1, c2)`` into 10 representatives.
    """
    chosen: dict[tuple[Term, ...], tuple[Term, ...]] = {}
    for probe in iter_probe_tuples(query):
        key = canonical_probe_representative(probe)
        if key not in chosen:
            chosen[key] = probe
    return tuple(chosen.values())
