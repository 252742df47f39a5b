"""Query minimisation (cores) under set semantics.

The *core* of a conjunctive query is the smallest sub-query that is set
equivalent to it; it is unique up to isomorphism and is the classic object
of query minimisation (Chandra–Merlin).  Under **bag** semantics removing a
"redundant" atom generally changes answer multiplicities, so minimisation is
*not* sound for bag equivalence — which the test-suite demonstrates and which
is exactly the kind of mismatch the paper's introduction motivates.  The core
computation is still essential as a baseline and for workload analysis.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine import get_default_backend
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.terms import Term, Variable

__all__ = ["core", "is_minimal", "redundant_atoms"]


def _folds_without_position(
    atoms: Sequence[Atom], head: Sequence[Variable], position: int
) -> bool:
    """Can *atoms* be folded into themselves without the atom at *position*?

    There must be a homomorphism from the full body into the body minus
    that one occurrence that is the identity on the head variables.  The
    candidate is removed **by position**, never by equality: filtering with
    ``!=`` would drop *every* syntactically equal occurrence at once, which
    both removes too much from the fold target and (in :func:`core`) could
    delete several occurrences in one step.
    """
    target = list(atoms[:position]) + list(atoms[position + 1 :])
    if not target:
        return False
    fixed: dict[Variable, Term] = {variable: variable for variable in head}
    return get_default_backend().exists(atoms, target, fixed)


def redundant_atoms(query: ConjunctiveQuery) -> list[Atom]:
    """Atoms that can be folded away while preserving set equivalence."""
    atoms = query.body_atoms()
    return [
        atoms[position]
        for position in range(len(atoms))
        if _folds_without_position(atoms, query.head, position)
    ]


def is_minimal(query: ConjunctiveQuery) -> bool:
    """``True`` when no body atom is redundant under set semantics."""
    return not redundant_atoms(query)


def core(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Compute the core (a minimal set-equivalent sub-query) of *query*.

    Atoms are removed greedily, one occurrence (position) at a time, while
    an endomorphism into the remaining body (fixing the head) exists.
    Multiplicities are reset to 1: the core is a set-semantics notion.
    """
    remaining = list(query.set_body().body_atoms())
    changed = True
    while changed:
        changed = False
        position = 0
        while position < len(remaining) and len(remaining) > 1:
            if _folds_without_position(remaining, query.head, position):
                remaining = remaining[:position] + remaining[position + 1 :]
                changed = True
            else:
                position += 1
    return ConjunctiveQuery(query.head, {atom: 1 for atom in remaining}, name=f"core({query.name})")
