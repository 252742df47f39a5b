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
of the inequality, the number of containment mappings that generated the
polynomial, and whether the probe tuple is unifiable with the head of the
containing query (condition (1) of Theorem 3.1).

Image queries ``h(q2)`` are never materialised: only their exponent vectors
enter the polynomial.  A position table, built once per (containing,
grounded containee) pair, maps each containing-body atom's image under
``h`` straight to its unknown index, and identical vectors are counted as
*packed* integers: one ``int`` per vector, one fixed-width slot per
unknown (:func:`_slot_units`).  The resulting ``vector -> count`` table is
unpacked once and becomes the polynomial as it is
(:meth:`~repro.diophantine.polynomials.Polynomial.from_table`): no
:class:`Monomial` is built for it, and Theorem 4.1's rows ``e − e_i`` are
read straight off its vectors.

The polynomial is computed in factorised form.  Once the probe fixes the
head, the containing body splits into *factors*: atoms connected through
non-head variables
(:attr:`~repro.engine.batch.ContainmentMappingBatcher.factors`).  Factors
share no free variable, so the containment mappings are the Cartesian
product of the factors' mappings.  Equation 1 adds multiplicities, so an
image's exponent vector is the sum of its factors' vectors, and ``P`` is
the product of one small sum per factor.  The engine enumerates each
factor once, each factor's mappings fold into a ``vector -> count``
table, and the tables convolve: vectors add, counts multiply.  A star
with ``k`` existential rays over ``r`` leaves costs ``k·r`` mappings
instead of ``r^k``, and the product is never materialised.

Factors that differ only in the names of their existential variables
(:attr:`~repro.engine.batch.ContainmentMappingBatcher.classes`) have the
same table, so only the first of each class is enumerated and folded:
the star's ``k`` renamed rays cost ``2·r`` mappings, one ray in the first
factor (which never shares) and one for all the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

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
    #: Containment mappings that generated the polynomial: the product of
    #: the factors' counts (the mappings themselves are never materialised).
    num_mappings: int
    probe_unifiable_with_containing: bool

    @property
    def dimension(self) -> int:
        """Number of unknowns (= distinct atoms of the grounded containee)."""
        return len(self.atoms)

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
    factors: Sequence[tuple[Atom, ...]],
    classes: Sequence[int],
    factor_mappings: Sequence[Sequence[Substitution]],
) -> Polynomial:
    """``P^{q2}_{q1(t)}``: one monomial per distinct image exponent vector.

    *factor_mappings* holds, per factor, the containment mappings of its
    class representative (``factors[classes[k]]``), or nothing when some
    factor has none (the zero polynomial).  The position table numbers the
    grounded terms and maps each grounded atom's term numbers to its
    unknown index (one dict per relation); it is built once and shared by
    every factor.  Each representative's mappings fold into a packed
    ``vector -> count`` table (:func:`_fold`), which stands for every factor
    of its class, and the tables convolve into the polynomial
    (:func:`_convolve`) in factor order; the final table is unpacked once.
    Factor 0's table starts at the variable-free atoms' vector, so it
    represents no other factor.
    """
    dimension = len(atoms)
    if not factor_mappings:
        return Polynomial((), dimension)
    term_ids: dict[Term, int] = {}
    for atom in atoms:
        for term in atom.terms:
            term_ids.setdefault(term, len(term_ids))
    positions: dict[str, dict[object, int]] = {}
    for index, atom in enumerate(atoms):
        positions.setdefault(atom.relation, {})[_key([term_ids[t] for t in atom.terms])] = index

    body = containing.body
    width, unit = _slot_units(sum(body.values()), dimension)
    # Atoms without variables are their own image under every mapping.
    base = 0
    moving = []
    for atom, multiplicity in body.items():
        at_relation = positions.get(atom.relation, {})
        if atom.variables():
            moving.append((atom, at_relation, multiplicity))
            continue
        position = at_relation.get(_key([term_ids.get(term) for term in atom.terms]))
        if position is None:
            raise _outside_body(containing, atom, factor_mappings[0][0])
        base += unit[position] * multiplicity
    entry_of = {entry[0]: entry for entry in moving}
    parts = [[entry_of[atom] for atom in factor if atom in entry_of] for factor in factors]

    tick = deadline_handle()
    counts: dict[int, int] = {}
    tables: dict[int, dict[int, int]] = {}
    for index, (part, mappings) in enumerate(zip(parts, factor_mappings)):
        table = tables.get(classes[index])
        if table is None:
            start = base if index == 0 else 0
            table = tables[index] = _fold(containing, part, term_ids, unit, start, mappings, tick)
        counts = _convolve(counts, table, tick) if index else table
    return Polynomial.from_table(_unpack(counts, width, dimension), dimension)


def _slot_units(total: int, dimension: int) -> tuple[int, list[int]]:
    """The slot width in bytes, and each unknown's unit, for packed vectors.

    A packed vector holds entry ``i`` in bytes ``[w·i, w·(i + 1))`` of one
    ``int``, so adding ``unit[i] = 1 << 8·w·i`` adds one to entry ``i``,
    and adding two packed vectors adds them entry by entry as long as no
    entry outgrows its slot.  *total* is the containing body's total
    multiplicity ``M``, and ``w`` is the number of whole bytes that hold
    it.  Every entry, of a factor's vector or of a convolved sum, is at
    most ``M``: the factors partition the body, and an entry sums the
    multiplicities of the body atoms whose image is that unknown.  So no
    slot ever carries into the next.
    """
    width = max(1, (total.bit_length() + 7) // 8)
    return width, [1 << (8 * width * position) for position in range(dimension)]


def _unpack(table: dict[int, int], width: int, dimension: int) -> dict[tuple[int, ...], int]:
    """A packed ``vector -> count`` table as exponent tuples (see :func:`_slot_units`)."""
    size = width * dimension
    if width == 1:
        return {tuple(vector.to_bytes(size, "little")): count for vector, count in table.items()}
    unpacked = {}
    for vector, count in table.items():
        packed = vector.to_bytes(size, "little")
        exponents = tuple(
            int.from_bytes(packed[start : start + width], "little")
            for start in range(0, size, width)
        )
        unpacked[exponents] = count
    return unpacked


def _fold(
    containing: ConjunctiveQuery,
    moving: Sequence[tuple[Atom, dict[object, int], int]],
    term_ids: dict[Term, int],
    unit: Sequence[int],
    base: int,
    mappings: Sequence[Substitution],
    tick: Callable[[], None] | None,
) -> dict[int, int]:
    """One factor's packed ``vector -> count`` table, starting every vector at *base*.

    A mapping ``h`` numbers the images of its bindings once; each moving
    atom ``(atom, at_relation, multiplicity)`` then reads its terms'
    numbers through an ``itemgetter`` and adds its multiplicity to the slot
    of its image (``unit[position] * multiplicity``, see
    :func:`_slot_units`), so atoms that collapse onto one image sum their
    multiplicities (Equation 1).  Mappings with equal vectors merge into
    one entry whose count is their number.
    """
    terms = dict.fromkeys(term for atom, _, _ in moving for term in atom.terms)

    def layout(domain: tuple[Variable, ...]) -> tuple[tuple, tuple[int | None, ...]]:
        """Atom getters over a mapping's bindings in *domain* order, then the fixed terms.

        Fixed terms are the atoms' constants and the variables the mapping
        leaves out (identity bindings): each is its own image.
        """
        slot_of = {term: slot for slot, term in enumerate(domain)}
        fixed = [term for term in terms if term not in slot_of]
        slot_of.update((term, slot) for slot, term in enumerate(fixed, len(domain)))
        table = tuple(
            (itemgetter(*(slot_of[term] for term in atom.terms)), at_relation, multiplicity, atom)
            for atom, at_relation, multiplicity in moving
        )
        return table, tuple(term_ids.get(term) for term in fixed)

    counts: dict[int, int] = {}
    # The engine emits every mapping's bindings in one order, so the layout
    # is built once and re-checked with an identity-fast tuple comparison.
    domain: tuple[Variable, ...] | None = None
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
        vector = base
        for key_of, at_relation, multiplicity, atom in table:
            position = at_relation.get(key_of(ids))
            if position is None:
                raise _outside_body(containing, atom, mapping)
            vector += unit[position] * multiplicity
        counts[vector] = counts.get(vector, 0) + 1
    return counts


def _convolve(
    left: dict[int, int],
    right: dict[int, int],
    tick: Callable[[], None] | None,
) -> dict[int, int]:
    """The product of two packed factor tables: vectors add, counts multiply."""
    product: dict[int, int] = {}
    countdown = TICK_INTERVAL if tick is not None else 0
    for left_vector, left_count in left.items():
        for right_vector, right_count in right.items():
            if countdown:
                countdown -= 1
                if not countdown:
                    assert tick is not None
                    tick()
                    countdown = TICK_INTERVAL
            vector = left_vector + right_vector
            product[vector] = product.get(vector, 0) + left_count * right_count
    return product


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

    # Enumerate one factor per class; a factor without mappings empties the product.
    classes = batcher.classes
    factor_mappings: list[tuple[Substitution, ...]] = []
    if unifiable:
        for index, representative in enumerate(classes):
            if representative != index:
                factor_mappings.append(factor_mappings[representative])
                continue
            mappings = batcher.mappings(grounded, probe_tuple, index)
            if not mappings:
                factor_mappings = []
                break
            factor_mappings.append(mappings)
    polynomial = _image_polynomial(containing, atoms, batcher.factors, classes, factor_mappings)
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
        num_mappings=prod(map(len, factor_mappings)) if factor_mappings else 0,
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
    """Encode one MPI per probe tuple, sharing one containing-side batcher.

    Every probe goes through one
    :class:`~repro.engine.batch.ContainmentMappingBatcher`, which splits the
    containing body into factors and maps each factor to its class of
    renamed copies once, for all probes.  The engine binds each class
    representative's plan template to every probe's grounded target, and
    compiles a template only for a shape it has not seen.  Lazy: a caller
    that stops at the first refuting probe never pays for the rest (the
    projection-freeness check still fails eagerly, at the call site).
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
