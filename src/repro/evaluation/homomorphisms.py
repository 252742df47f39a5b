"""Homomorphism and containment-mapping enumeration (query-level layer).

This is the combinatorial surface underneath everything else:

* ``Hom(q, I)`` — homomorphisms of a query into a set instance — drive both
  set-semantics evaluation and bag-semantics evaluation (Equation 2);
* ``CM(q2(x2), q1(x1))`` — containment mappings between queries — drive
  Chandra–Merlin set containment and the polynomial encoding of
  Definition 3.3.

Both are special cases of one operation: enumerating all substitutions ``h``
of the variables of a *source* set of atoms such that ``h(α)`` belongs to a
*target* set of atoms, subject to some pre-fixed bindings.  That operation
now lives in :mod:`repro.engine`, which compiles a ``(source, target,
fixed)`` triple into a reusable match plan and executes it iteratively in
``iterate`` / ``count`` / ``exists`` mode.  This module keeps the historical
query-level API:

* :func:`homomorphisms` is a *compatibility shim* pinned to the ``naive``
  reference backend — the original recursive backtracker — so downstream
  code (and the property tests) always have the executable specification;
* every other entry point routes through the engine's default backend
  (``interned`` unless reconfigured), picking the cheapest execution mode:
  :func:`has_homomorphism` uses ``exists`` and never materialises a
  substitution, :func:`count_homomorphisms` uses ``count``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.engine import api as _engine
from repro.engine.backends import get_backend
from repro.engine.batch import head_fixing
from repro.exceptions import QueryError
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.instances import SetInstance
from repro.relational.substitutions import Substitution, unify_tuples
from repro.relational.terms import Term, Variable

__all__ = [
    "homomorphisms",
    "count_homomorphisms",
    "query_homomorphisms",
    "containment_mappings",
    "containment_mappings_to_ground",
    "has_homomorphism",
    "answer_fixing",
]


def homomorphisms(
    source_atoms: Iterable[Atom],
    target_atoms: Iterable[Atom],
    fixed: Mapping[Variable, Term] | None = None,
) -> Iterator[Substitution]:
    """Enumerate all homomorphisms from *source_atoms* into *target_atoms*.

    A homomorphism is a substitution ``h`` defined on every variable of the
    source such that ``h(α)`` is an element of the target for every source
    atom ``α``.  Pre-fixed bindings (*fixed*) are honoured and included in
    the yielded substitutions.  Target atoms may themselves contain
    variables (needed for containment mappings between non-ground queries).

    .. note::
       This function is the compatibility shim over the **naive** reference
       backend and ignores the engine's default-backend selection; use
       :func:`repro.engine.iterate_homomorphisms` (or the other helpers in
       this module) for the compiled engine.
    """
    return get_backend("naive").iterate(source_atoms, target_atoms, fixed)


def has_homomorphism(
    source_atoms: Iterable[Atom],
    target_atoms: Iterable[Atom],
    fixed: Mapping[Variable, Term] | None = None,
) -> bool:
    """``True`` when at least one homomorphism exists (engine ``exists`` mode)."""
    return _engine.has_homomorphism(source_atoms, target_atoms, fixed)


def count_homomorphisms(
    source_atoms: Iterable[Atom],
    target_atoms: Iterable[Atom],
    fixed: Mapping[Variable, Term] | None = None,
) -> int:
    """Number of homomorphisms (engine ``count`` mode, no substitutions built)."""
    return _engine.count_homomorphisms(source_atoms, target_atoms, fixed)


def answer_fixing(
    query: ConjunctiveQuery, answer: Sequence[Term] | None
) -> dict[Variable, Term] | None:
    """Head bindings for an answer restriction; ``None`` when inconsistent.

    Shared by every caller that pins a query's head to an answer tuple
    (query homomorphisms, bag-set counting, the batch bag evaluator).
    Raises :class:`QueryError` when the answer's arity does not match.
    """
    if answer is None:
        return {}
    answer = tuple(answer)
    if len(answer) != query.arity:
        raise QueryError(
            f"answer tuple has arity {len(answer)}, query {query.name} has arity {query.arity}"
        )
    try:
        substitution = unify_tuples(query.head, answer)
    except Exception:
        return None
    return {variable: substitution[variable] for variable in substitution}


def query_homomorphisms(
    query: ConjunctiveQuery,
    instance: SetInstance,
    answer: Sequence[Term] | None = None,
) -> Iterator[Substitution]:
    """``Hom(q(x), I)``, optionally restricted to ``h(x) = answer``.

    When *answer* is supplied it must be a tuple of constants of the query's
    arity; the head variables are pre-bound accordingly (if the binding is
    inconsistent — e.g. a repeated head variable asked to take two different
    values — no homomorphism is yielded).
    """
    fixed = answer_fixing(query, answer)
    if fixed is None:
        return iter(())
    return _engine.iterate_homomorphisms(query.body_atoms(), instance.facts, fixed)


def containment_mappings(
    containing: ConjunctiveQuery,
    containee: ConjunctiveQuery,
) -> Iterator[Substitution]:
    """``CM(q2(x2), q1(x1))``: containment mappings from *containing* to *containee*.

    A containment mapping is a homomorphism from the body of ``q2`` to the
    body of ``q1`` mapping the head of ``q2`` onto the head of ``q1``
    position-wise.  Following Chandra–Merlin, ``q1 ⊑s q2`` iff at least one
    containment mapping exists.
    """
    if containing.arity != containee.arity:
        return iter(())
    fixed = head_fixing(containing.head, containee.head)
    if fixed is None:
        return iter(())
    return _engine.iterate_homomorphisms(containing.body_atoms(), containee.body_atoms(), fixed)


def containment_mappings_to_ground(
    containing: ConjunctiveQuery,
    grounded_containee: ConjunctiveQuery,
    probe: Sequence[Term],
) -> Iterator[Substitution]:
    """``CM(q2(x2), q1(t))``: mappings of ``q2`` into the grounded containee.

    *grounded_containee* is the Boolean query ``q1(t)`` (its body is ground),
    and *probe* is the tuple ``t`` itself; the head of ``q2`` is required to
    map onto ``t`` position-wise.  This matches the paper's abuse of
    notation ``CM(q2(x2), q1(t))``.
    """
    probe = tuple(probe)
    if containing.arity != len(probe):
        return iter(())
    fixed = head_fixing(containing.head, probe)
    if fixed is None:
        return iter(())
    return _engine.iterate_homomorphisms(
        containing.body_atoms(), grounded_containee.body_atoms(), fixed
    )
