"""Encoding a bag-containment instance as a monomial–polynomial inequality.

Definitions 3.2 and 3.3 of the paper associate

* the projection-free containee ``q1(x1)``, grounded on a probe tuple ``t``,
  with the monomial ``M_{q1(t)}(u)`` whose exponents are the body
  multiplicities of ``q1(t)``;
* the containing query ``q2(x2)`` with the polynomial ``P^{q2}_{q1(t)}(u)``
  obtained by summing, over every containment mapping ``h`` of ``q2`` into
  ``q1(t)``, the monomial of the image query ``h(q2)``.

The unknown ``u_i`` stands for the (unknown) multiplicity of the i-th atom
of ``body(q1(t))`` in a bag over the canonical instance ``I_{q1(t)}``.
Corollary 3.1 / Theorem 5.3 then reduce containment to the unsolvability of
the inequality ``P < M``.

:class:`MpiEncoding` bundles everything a caller could want to inspect:
the grounded containee, the ordered atom/unknown correspondence, both sides
of the inequality, the containment mappings that generated the polynomial,
and whether the probe tuple is unifiable with the head of the containing
query (condition (1) of Theorem 3.1).

Image queries ``h(q2)`` are never materialised: only their exponent vectors
enter the polynomial.  A position table, built once per (containing,
grounded containee) pair, maps each containing-body atom's image under
``h`` straight to its unknown index, and identical vectors are counted as
integer tuples before any :class:`Monomial` is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.core.probe_tuples import most_general_probe_tuple
from repro.diophantine.inequalities import MonomialPolynomialInequality
from repro.diophantine.monomials import Monomial
from repro.diophantine.polynomials import Polynomial
from repro.engine import ContainmentMappingBatcher
from repro.exceptions import ContainmentError, UnificationError
from repro.faults.runtime import TICK_INTERVAL, deadline_handle
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.substitutions import Substitution, unify_tuples
from repro.relational.terms import Term, Variable

__all__ = [
    "MpiEncoding",
    "encode",
    "encode_many",
    "encode_most_general",
    "unknown_name_for_atom",
]


def unknown_name_for_atom(atom: Atom, index: int) -> str:
    """A readable unknown name ``u<i>[R(a,b)]`` for the i-th atom."""
    return f"u{index + 1}[{atom}]"


@dataclass(frozen=True)
class MpiEncoding:
    """The full Diophantine encoding of one (containee, containing, probe) triple."""

    containee: ConjunctiveQuery
    containing: ConjunctiveQuery
    probe: tuple[Term, ...]
    grounded_containee: ConjunctiveQuery
    atoms: tuple[Atom, ...]
    unknown_names: tuple[str, ...]
    monomial: Monomial
    polynomial: Polynomial
    inequality: MonomialPolynomialInequality
    mappings: tuple[Substitution, ...]
    probe_unifiable_with_containing: bool

    @property
    def dimension(self) -> int:
        """Number of unknowns (= distinct atoms of the grounded containee)."""
        return len(self.atoms)

    @property
    def num_mappings(self) -> int:
        """Number of containment mappings from the containing query into ``q1(t)``."""
        return len(self.mappings)

    def atom_index(self, atom: Atom) -> int:
        """Position of *atom* in the unknown order; raises ``ValueError`` if absent."""
        return self.atoms.index(atom)

    def describe(self) -> str:
        """A multi-line, human-readable description of the encoding."""
        lines = [
            f"containee : {self.containee}",
            f"containing: {self.containing}",
            f"probe     : ({', '.join(str(term) for term in self.probe)})",
            f"grounded  : {self.grounded_containee}",
            "unknowns  :",
        ]
        for name, atom in zip(self.unknown_names, self.atoms):
            lines.append(f"    {name} ~ multiplicity of {atom}")
        lines.append(f"monomial  M = {self.monomial.render(self.unknown_names)}")
        lines.append(f"polynomial P = {self.polynomial.render(self.unknown_names)}")
        lines.append(f"containment mappings: {self.num_mappings}")
        lines.append(
            "probe unifiable with containing head: "
            + ("yes" if self.probe_unifiable_with_containing else "no")
        )
        return "\n".join(lines)


def _outside_body(containing: ConjunctiveQuery, atom: Atom, mapping: Substitution) -> ContainmentError:
    return ContainmentError(
        f"internal error: image atom {mapping.apply_atom(atom)} of {containing.name} is not "
        "part of the grounded containee body"
    )


def _image_polynomial(
    containing: ConjunctiveQuery,
    atoms: Sequence[Atom],
    mappings: Sequence[Substitution],
) -> Polynomial:
    """``P^{q2}_{q1(t)}``: one monomial per distinct image exponent vector.

    The position table numbers the grounded terms and maps each grounded
    atom's term numbers to its unknown index (one dict per relation).  A
    mapping ``h`` numbers the images of its bindings once; each containing
    atom then reads its terms' numbers through an ``itemgetter`` and adds
    its multiplicity at the index of its image, so atoms that collapse onto
    one image sum their multiplicities (Equation 1).  Mappings with equal
    vectors merge into one monomial whose coefficient counts them.
    """
    dimension = len(atoms)
    if not mappings:
        return Polynomial((), dimension)
    term_ids: dict[Term, int] = {}
    for atom in atoms:
        for term in atom.terms:
            term_ids.setdefault(term, len(term_ids))
    positions: dict[str, dict[object, int]] = {}
    for index, atom in enumerate(atoms):
        positions.setdefault(atom.relation, {})[_key([term_ids[t] for t in atom.terms])] = index

    body = containing.body
    variables = containing.variables()
    constants = tuple(sorted({t for atom in body for t in atom.terms} - variables, key=str))
    # Atoms without variables are their own image under every mapping.
    base = [0] * dimension
    moving = []
    for atom, multiplicity in body.items():
        at_relation = positions.get(atom.relation, {})
        if atom.variables():
            moving.append((atom, at_relation, multiplicity))
            continue
        position = at_relation.get(_key([term_ids.get(term) for term in atom.terms]))
        if position is None:
            raise _outside_body(containing, atom, mappings[0])
        base[position] += multiplicity

    def layout(domain: tuple[Variable, ...]) -> tuple[tuple, tuple[int | None, ...]]:
        """Atom getters over a mapping's bindings in *domain* order, then the fixed terms."""
        fixed = tuple(sorted(variables.difference(domain))) + constants
        slot_of = {term: slot for slot, term in enumerate(domain + fixed)}
        table = tuple(
            (itemgetter(*(slot_of[term] for term in atom.terms)), at_relation, multiplicity, atom)
            for atom, at_relation, multiplicity in moving
        )
        return table, tuple(term_ids.get(term) for term in fixed)

    counts: dict[tuple[int, ...], int] = {}
    # The engine emits every mapping's bindings in one order, so the layout
    # is built once and re-checked with an identity-fast tuple comparison.
    domain: tuple[Variable, ...] | None = None
    tick = deadline_handle()
    countdown = TICK_INTERVAL if tick is not None else 0
    for mapping in mappings:
        if countdown:
            countdown -= 1
            if not countdown:
                assert tick is not None
                tick()
                countdown = TICK_INTERVAL
        bindings = mapping.bindings()
        keys = tuple(bindings)
        if keys != domain:
            domain = keys
            table, fixed_ids = layout(domain)
        ids = tuple(map(term_ids.get, bindings.values())) + fixed_ids
        exponents = base.copy()
        for key_of, at_relation, multiplicity, atom in table:
            position = at_relation.get(key_of(ids))
            if position is None:
                raise _outside_body(containing, atom, mapping)
            exponents[position] += multiplicity
        vector = tuple(exponents)
        counts[vector] = counts.get(vector, 0) + 1
    return Polynomial(
        [Monomial(count, vector) for vector, count in counts.items()], dimension=dimension
    )


def _key(ids: Sequence[int | None]) -> object:
    """The lookup key of a term-number vector, as ``itemgetter`` returns it."""
    return ids[0] if len(ids) == 1 else tuple(ids)


def _encode_at_probe(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    probe_tuple: tuple[Term, ...],
    batcher: ContainmentMappingBatcher,
) -> MpiEncoding:
    """The per-probe encoding body shared by :func:`encode` and :func:`encode_many`."""
    grounded = containee.ground(probe_tuple, name=f"{containee.name}(t)")
    atoms = grounded.body_atoms()
    unknown_names = tuple(unknown_name_for_atom(atom, index) for index, atom in enumerate(atoms))

    body = grounded.body
    monomial = Monomial(1, tuple(body[atom] for atom in atoms))

    try:
        unify_tuples(containing.head, probe_tuple)
        unifiable = True
    except UnificationError:
        unifiable = False

    mappings: tuple[Substitution, ...] = ()
    if unifiable:
        mappings = batcher.mappings(grounded, probe_tuple)
    polynomial = _image_polynomial(containing, atoms, mappings)
    inequality = MonomialPolynomialInequality(polynomial, monomial)

    return MpiEncoding(
        containee=containee,
        containing=containing,
        probe=probe_tuple,
        grounded_containee=grounded,
        atoms=atoms,
        unknown_names=unknown_names,
        monomial=monomial,
        polynomial=polynomial,
        inequality=inequality,
        mappings=mappings,
        probe_unifiable_with_containing=unifiable,
    )


def encode(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    probe: Sequence[Term],
) -> MpiEncoding:
    """Build the MPI encoding of ``containee ⊑b containing`` at the probe tuple *probe*.

    The containee must be projection-free (the monomial of Definition 3.2
    only exists because the grounding homomorphism is unique in that case).
    """
    containee.require_projection_free()
    return _encode_at_probe(
        containee, containing, tuple(probe), ContainmentMappingBatcher(containing)
    )


def encode_many(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    probes: Iterable[Sequence[Term]],
) -> Iterator[MpiEncoding]:
    """Encode one MPI per probe tuple, sharing one compiled containing-side plan.

    The containing query's join order is compiled once (through the engine's
    :class:`~repro.engine.batch.ContainmentMappingBatcher`) and re-targeted at
    each grounded containee, which is what makes the all-probes and
    bounded-guess strategies scale past a handful of probe tuples.  Lazy: a
    caller that stops at the first refuting probe never pays for the rest
    (the projection-freeness check still fails eagerly, at the call site).
    """
    containee.require_projection_free()
    batcher = ContainmentMappingBatcher(containing)

    def generate() -> Iterator[MpiEncoding]:
        for probe in probes:
            yield _encode_at_probe(containee, containing, tuple(probe), batcher)

    return generate()


def encode_most_general(
    containee: ConjunctiveQuery, containing: ConjunctiveQuery
) -> MpiEncoding:
    """The encoding at the most-general probe tuple ``t⋆`` (Theorem 5.3)."""
    return encode(containee, containing, most_general_probe_tuple(containee))
