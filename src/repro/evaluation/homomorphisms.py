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
lives in :mod:`repro.engine`: the active backend's ``iterate`` / ``count`` /
``exists`` (:func:`repro.engine.get_default_backend`) take the atoms
directly.  This module only adds the query-level head handling, through
the one head-binding helper :func:`repro.engine.batch.head_fixing`.
Containment mappings into a grounded containee ``q1(t)`` are
:meth:`repro.engine.ContainmentMappingBatcher.mappings`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.engine.backends import get_default_backend
from repro.engine.batch import head_fixing
from repro.queries.cq import ConjunctiveQuery
from repro.relational.instances import SetInstance
from repro.relational.substitutions import Substitution
from repro.relational.terms import Term

__all__ = ["query_homomorphisms", "containment_mappings"]


def query_homomorphisms(
    query: ConjunctiveQuery,
    instance: SetInstance,
    answer: Sequence[Term] | None = None,
) -> Iterator[Substitution]:
    """``Hom(q(x), I)``, optionally restricted to ``h(x) = answer``.

    When *answer* is supplied the head variables are pre-bound to it.  An
    answer that does not fit the head — the wrong arity, or a repeated head
    variable asked to take two different values — yields no homomorphism.
    """
    fixed = {} if answer is None else head_fixing(query.head, tuple(answer))
    if fixed is None:
        return iter(())
    return get_default_backend().iterate(query.body_atoms(), instance.facts, fixed)


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
    fixed = head_fixing(containing.head, containee.head)
    if fixed is None:
        return iter(())
    return get_default_backend().iterate(
        containing.body_atoms(), containee.body_atoms(), fixed
    )
