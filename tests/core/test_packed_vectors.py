"""Packed exponent vectors: the encoding's fold and convolution against tuple vectors.

The encoding carries each exponent vector as one ``int`` with a fixed-width
slot per unknown, from ``_fold`` through ``_convolve``, and unpacks the
final table once.  The reference below is the tuple-vector ``_fold`` and
``_convolve`` the encoding used before, copied verbatim, with the part of
``_image_polynomial`` that drives them.  Both must build identical
``vector -> count`` tables, in particular at the slot-width boundaries:
the width is the number of whole bytes that hold the containing body's
total multiplicity ``M``, so ``M`` = 255 and 256, 65,535 and 65,536 sit on
either side of a width change.
"""

from __future__ import annotations

import time
from operator import add, itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoding import (
    _convolve,
    _key,
    _outside_body,
    _slot_units,
    _unpack,
    encode,
)
from repro.core.probe_tuples import most_general_probe_tuple
from repro.diophantine.polynomials import Polynomial
from repro.engine import ContainmentMappingBatcher
from repro.exceptions import DeadlineExceeded, UnificationError
from repro.faults.runtime import TICK_INTERVAL, deadline_handle, deadline_scope
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.terms import Constant, Variable
from repro.session import Session

from tests.properties.strategies import projection_free_queries, queries_over_shared_head


# --------------------------------------------------------------------------- #
# The reference: tuple vectors, as the encoding built them before packing.
# --------------------------------------------------------------------------- #
def _tuple_fold(containing, moving, term_ids, base, mappings, tick):
    terms = dict.fromkeys(term for atom, _, _ in moving for term in atom.terms)

    def layout(domain):
        slot_of = {term: slot for slot, term in enumerate(domain)}
        fixed = [term for term in terms if term not in slot_of]
        slot_of.update((term, slot) for slot, term in enumerate(fixed, len(domain)))
        table = tuple(
            (itemgetter(*(slot_of[term] for term in atom.terms)), at_relation, multiplicity, atom)
            for atom, at_relation, multiplicity in moving
        )
        return table, tuple(term_ids.get(term) for term in fixed)

    counts = {}
    domain = None
    for mapping in mappings:
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
    return counts


def _tuple_convolve(left, right, tick):
    product = {}
    for left_vector, left_count in left.items():
        for right_vector, right_count in right.items():
            vector = tuple(map(add, left_vector, right_vector))
            product[vector] = product.get(vector, 0) + left_count * right_count
    return product


def _tuple_table(containee, containing, probe):
    """The encoding's ``vector -> count`` table at *probe*, built with tuple vectors."""
    grounded = containee.ground(probe, name=f"{containee.name}(t)")
    atoms = grounded.body_atoms()
    dimension = len(atoms)
    batcher = ContainmentMappingBatcher(containing)
    factor_mappings = []
    for index, representative in enumerate(batcher.classes):
        if representative != index:
            factor_mappings.append(factor_mappings[representative])
            continue
        mappings = batcher.mappings(grounded, probe, index)
        if not mappings:
            return {}
        factor_mappings.append(mappings)
    term_ids = {}
    for atom in atoms:
        for term in atom.terms:
            term_ids.setdefault(term, len(term_ids))
    positions = {}
    for index, atom in enumerate(atoms):
        positions.setdefault(atom.relation, {})[_key([term_ids[t] for t in atom.terms])] = index
    base = [0] * dimension
    moving = []
    for atom, multiplicity in containing.body.items():
        at_relation = positions.get(atom.relation, {})
        if atom.variables():
            moving.append((atom, at_relation, multiplicity))
            continue
        base[at_relation[_key([term_ids.get(term) for term in atom.terms])]] += multiplicity
    entry_of = {entry[0]: entry for entry in moving}
    parts = [[entry_of[atom] for atom in factor if atom in entry_of] for factor in batcher.factors]
    counts = {}
    tables = {}
    for index, (part, mappings) in enumerate(zip(parts, factor_mappings)):
        table = tables.get(batcher.classes[index])
        if table is None:
            start = [0] * dimension if index else base
            table = tables[index] = _tuple_fold(containing, part, term_ids, start, mappings, None)
        counts = _tuple_convolve(counts, table, None) if index else table
    return counts


def _assert_matches_tuples(containee, containing, probe):
    """The encoding's polynomial is the tuple reference's table, term for term."""
    encoding = encode(containee, containing, probe)
    expected = _tuple_table(containee, containing, probe)
    assert encoding.polynomial == Polynomial.from_table(expected, encoding.dimension)
    assert dict(zip(encoding.polynomial.exponent_vectors(), encoding.polynomial.coefficients())) == expected
    return encoding


def _pack(table, unit):
    return {sum(u * entry for u, entry in zip(unit, vector)): count for vector, count in table.items()}


# --------------------------------------------------------------------------- #
# Generated cases
# --------------------------------------------------------------------------- #
_BOUNDARIES = (1, 2, 255, 256, 65_535, 65_536, 1 << 20, (1 << 24) + 7)


@st.composite
def convolvable_tables(draw):
    """Two ``vector -> count`` tables whose every pairwise sum stays within ``M``.

    Each position ``i`` gets a split ``s_i`` of ``M``: left entries stay at
    most ``s_i`` and right entries at most ``M − s_i``, with the extremes
    drawn often so sums land exactly on ``M``.
    """
    total = draw(st.sampled_from(_BOUNDARIES))
    dimension = draw(st.integers(min_value=1, max_value=4))

    def bounded(limit):
        return st.one_of(st.just(0), st.just(limit), st.integers(min_value=0, max_value=limit))

    splits = [draw(bounded(total)) for _ in range(dimension)]

    def table(limits):
        vectors = st.tuples(*(bounded(limit) for limit in limits))
        return draw(st.dictionaries(vectors, st.integers(min_value=1, max_value=5), max_size=6))

    return total, dimension, table(splits), table([total - split for split in splits])


@st.composite
def star_factor_pairs(draw):
    """A star containee and a containing star with existential rays, multiplicities drawn.

    Each existential ray is a factor of its own; rays of equal multiplicity
    share a class, and the head rays join factor 0.
    """
    leaves = draw(st.integers(min_value=1, max_value=3))
    x = Variable("x")
    head = (x, *(Variable(f"y{i}") for i in range(leaves)))
    containee = ConjunctiveQuery(head, {Atom("R", (x, leaf)): 1 for leaf in head[1:]}, name="q1")
    multiplicity = st.integers(min_value=1, max_value=300)
    body = {Atom("R", (x, leaf)): draw(multiplicity) for leaf in head[1:]}
    for ray in range(draw(st.integers(min_value=1, max_value=4))):
        body[Atom("R", (x, Variable(f"z{ray}")))] = draw(multiplicity)
    return containee, ConjunctiveQuery(head, body, name="q2")


class TestAgainstTupleVectors:
    @given(convolvable_tables())
    @settings(max_examples=300, deadline=None)
    def test_convolution_matches_the_tuple_convolution(self, case):
        total, dimension, left, right = case
        width, unit = _slot_units(total, dimension)
        packed_left, packed_right = _pack(left, unit), _pack(right, unit)
        assert _unpack(packed_left, width, dimension) == left
        assert _unpack(packed_right, width, dimension) == right
        product = _convolve(packed_left, packed_right, None)
        assert _unpack(product, width, dimension) == _tuple_convolve(left, right, None)

    @pytest.mark.parametrize("backend", ["naive", "interned"])
    @given(projection_free_queries(max_atoms=4), queries_over_shared_head(max_atoms=4))
    @settings(max_examples=60, deadline=None)
    def test_encodings_match_the_tuple_reference(self, backend, containee, containing):
        with Session(backend=backend).activate():
            for probe in (most_general_probe_tuple(containee), (Constant("a"), Constant("b"))):
                try:
                    containee.ground(probe)
                except UnificationError:
                    continue
                _assert_matches_tuples(containee, containing, probe)

    @given(star_factor_pairs())
    @settings(max_examples=80, deadline=None)
    def test_multi_factor_stars_match_the_tuple_reference(self, pair):
        containee, containing = pair
        _assert_matches_tuples(containee, containing, most_general_probe_tuple(containee))


class TestSlotWidths:
    @pytest.mark.parametrize(
        "total, width",
        [(1, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 3), (1 << 20, 3), (1 << 24, 4)],
    )
    def test_width_is_the_bytes_that_hold_the_total(self, total, width):
        assert _slot_units(total, 3) == (width, [1, 1 << (8 * width), 1 << (16 * width)])

    @pytest.mark.parametrize(
        "multiplicities",
        [
            (253, 1, 1),  # M = 255: one byte per slot, the top entry fills it
            (254, 1, 1),  # M = 256: two bytes
            (65_533, 1, 1),  # M = 65,535
            (65_534, 1, 1),  # M = 65,536: three bytes
            (1 << 20, 1, 1),  # one multiplicity of 2^20
        ],
    )
    def test_boundary_totals_match_the_tuple_reference(self, multiplicities):
        x, a = Variable("x"), Constant("a")
        containee = ConjunctiveQuery((x,), {Atom("R", (x, x)): 1, Atom("R", (x, a)): 1}, name="q1")
        body = {Atom("R", (x, Variable(f"z{i}"))): m for i, m in enumerate(multiplicities)}
        containing = ConjunctiveQuery((x,), body, name="q2")
        encoding = _assert_matches_tuples(containee, containing, most_general_probe_tuple(containee))
        total = sum(multiplicities)
        # Every ray on one image fills that unknown's slot with exactly M,
        # next to an empty slot: the largest entry must not carry.
        assert set(encoding.polynomial.exponent_vectors()) >= {(total, 0), (0, total)}
        assert encoding.num_mappings == 8


class TestDeadline:
    def test_convolution_ticks_once_per_interval(self):
        calls = []
        left = {vector: 1 for vector in range(100)}
        right = {vector << 8: 1 for vector in range(100)}
        product = _convolve(left, right, lambda: calls.append(None))
        assert len(product) == 100 * 100
        assert len(calls) == 100 * 100 // TICK_INTERVAL

    def test_convolution_stops_at_an_expired_deadline(self):
        left = {vector: 1 for vector in range(2_000)}
        right = {vector << 16: 1 for vector in range(2_000)}
        with deadline_scope(5):
            tick = deadline_handle()
            time.sleep(0.01)
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                _convolve(left, right, tick)
        assert time.perf_counter() - started < 0.1
