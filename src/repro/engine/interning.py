"""Term interning and columnar target storage for the interned backend.

A search over the library's value objects pays object-protocol costs on
every step: each candidate probe hashes tuples of
:class:`~repro.relational.terms.Term` dataclasses, each binding check runs
a dataclass ``__eq__``, and each signature-index lookup rebuilds a term
tuple.  For the hot loops — homomorphism enumeration, counting and existence
— those costs dominate once plans are cached.  This module replaces the
representation underneath:

:class:`TermDictionary`
    A per-backend bijection between terms and dense integer ids.  Interning
    is append-only (ids are never recycled), so an id remains valid for the
    dictionary's whole lifetime and integer equality is term equality.

:class:`InternedRelation`
    The columnar image of one ``(relation, arity)`` bucket: one
    :class:`array.array` per argument position (the column layout signature
    indexes are built from — building an index touches only the signature's
    columns) plus the materialised tuple-of-int rows the executor iterates.

:class:`InternedTarget`
    The interned image of one deduplicated target atom set, with lazily
    built signature group indexes keyed on *packed* integer keys (the ids at
    the signature positions packed into one machine integer, see
    :func:`pack_ids`) and per-signature statistics — bucket size over group
    count is the observed selectivity estimate that the interned planner's
    cost ordering consumes in place of the static fail-first guess.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Iterable, Iterator

from repro.relational.atoms import Atom
from repro.relational.terms import Term

__all__ = [
    "ID_BITS",
    "InternedRelation",
    "InternedTarget",
    "TermDictionary",
    "pack_ids",
]

#: Bits reserved per id when packing a multi-position signature key.  Ids are
#: dense (one per distinct term seen by a backend), so 32 bits of headroom
#: keeps single- and double-position keys inside CPython's fast small-int
#: range while remaining collision-free for any realistic dictionary.
ID_BITS = 32

_SERIALS = itertools.count(1)


class TermDictionary:
    """An append-only bijection between terms and dense integer ids.

    One dictionary per backend instance: every id used by that backend's
    compiled artefacts (columns, group indexes, plan constants) refers to
    this dictionary, and ``serial`` — unique for the process lifetime —
    tags shared-cache entries so artefacts can never be rehydrated against
    a different dictionary's id space.

    Ids are bounded by ``id_bits`` (:data:`ID_BITS` unless overridden): the
    packed-key arithmetic of :meth:`InternedTarget.group_index` and the
    plan executors shifts each id into its own :data:`ID_BITS` window, so
    an id at or beyond ``2**id_bits`` would make packed keys non-injective
    and silently conflate distinct candidate groups.  Rather than collide,
    :meth:`intern` raises :class:`~repro.exceptions.TermIdOverflowError`
    at the computed bound.
    """

    __slots__ = ("_ids", "_terms", "serial", "id_bits", "capacity")

    def __init__(self, id_bits: int = ID_BITS) -> None:
        if id_bits < 1:
            raise ValueError("a term dictionary needs at least one id bit")
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self.serial = next(_SERIALS)
        self.id_bits = id_bits
        self.capacity = 1 << id_bits

    def intern(self, term: Term) -> int:
        """The id of *term*, assigning the next dense id on first sight."""
        ids = self._ids
        interned = ids.get(term)
        if interned is None:
            interned = len(self._terms)
            if interned >= self.capacity:
                from repro.exceptions import TermIdOverflowError

                raise TermIdOverflowError(term, self.id_bits, self.capacity)
            ids[term] = interned
            self._terms.append(term)
        return interned

    def lookup(self, term: Term) -> int | None:
        """The id of *term* if already interned, else ``None`` (no mutation)."""
        return self._ids.get(term)

    def intern_many(self, terms: Iterable[Term]) -> tuple[int, ...]:
        """Intern a tuple of terms (one atom's argument list, typically)."""
        return tuple(self.intern(term) for term in terms)

    def term(self, index: int) -> Term:
        """Invert :meth:`intern` (ids are never recycled, so this is total)."""
        return self._terms[index]

    @property
    def terms(self) -> list[Term]:
        """The interned terms, indexable by id (shared, do not mutate)."""
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TermDictionary({len(self._terms)} terms, serial {self.serial})"


def pack_ids(ids: Iterable[int]) -> int:
    """Pack a sequence of term ids into one integer key.

    Single-position signatures key by the bare id; longer signatures shift
    each id into its own :data:`ID_BITS` window.  Packed keys hash and
    compare as machine integers, which is what makes the interned signature
    index probe cheap.
    """
    packed = 0
    for value in ids:
        packed = (packed << ID_BITS) | value
    return packed


class InternedRelation:
    """Columnar storage of one ``(relation, arity)`` target bucket."""

    __slots__ = ("arity", "columns", "rows")

    def __init__(self, arity: int, rows: list[tuple[int, ...]]) -> None:
        self.arity = arity
        self.rows: tuple[tuple[int, ...], ...] = tuple(rows)
        # One array per argument position: signature indexes are built by
        # scanning only the columns the signature names.
        self.columns: tuple[array, ...] = tuple(
            array("q", (row[position] for row in self.rows)) for position in range(arity)
        )

    def __len__(self) -> int:
        return len(self.rows)


class InternedTarget:
    """The interned, columnar image of one deduplicated target atom set.

    Signature group indexes map a packed key to the tuple of matching rows
    and are built lazily from the columns, once per ``(relation, arity,
    signature)``.  Building one records the group count, which yields the
    *observed selectivity* ``len(bucket) / groups`` — the average candidate
    count a probe of that signature returns — that
    :func:`repro.engine.interned.compile_interned_plan` orders join steps
    by.
    """

    __slots__ = ("_dictionary", "_relations", "_groups", "_atoms")

    def __init__(self, dictionary: TermDictionary, target_atoms: Iterable[Atom]) -> None:
        self._dictionary = dictionary
        self._atoms: tuple[Atom, ...] = tuple(dict.fromkeys(target_atoms))
        buckets: dict[tuple[str, int], list[tuple[int, ...]]] = {}
        for atom in self._atoms:
            row = dictionary.intern_many(atom.terms)
            buckets.setdefault((atom.relation, atom.arity), []).append(row)
        self._relations: dict[tuple[str, int], InternedRelation] = {
            (relation, arity): InternedRelation(arity, rows)
            for (relation, arity), rows in buckets.items()
        }
        self._groups: dict[
            tuple[str, int, tuple[int, ...]], dict[int, tuple[tuple[int, ...], ...]]
        ] = {}

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The deduplicated target atoms, in first-seen order."""
        return self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def relation_sizes(self) -> dict[tuple[str, int], int]:
        """Bucket sizes, the static half of the planner's cost estimate."""
        return {key: len(relation) for key, relation in self._relations.items()}

    def rows(self, relation: str, arity: int) -> tuple[tuple[int, ...], ...]:
        """Every interned row of the bucket (the empty-signature candidates)."""
        bucket = self._relations.get((relation, arity))
        return bucket.rows if bucket is not None else ()

    def group_index(
        self, relation: str, arity: int, signature: tuple[int, ...]
    ) -> dict[int, tuple[tuple[int, ...], ...]]:
        """The packed-key group index for *signature*, built on first use."""
        key = (relation, arity, signature)
        index = self._groups.get(key)
        if index is None:
            grouped: dict[int, list[tuple[int, ...]]] = {}
            bucket = self._relations.get((relation, arity))
            if bucket is not None:
                columns = [bucket.columns[position] for position in signature]
                for row_number, row in enumerate(bucket.rows):
                    packed = 0
                    for column in columns:
                        packed = (packed << ID_BITS) | column[row_number]
                    grouped.setdefault(packed, []).append(row)
            index = {packed: tuple(rows) for packed, rows in grouped.items()}
            self._groups[key] = index
        return index

    def selectivity(
        self, relation: str, arity: int, signature: tuple[int, ...]
    ) -> float | None:
        """Observed average candidates per probe for a *built* signature index.

        ``None`` when the signature index has not been built yet — the
        planner then falls back to its static estimate.  An empty bucket
        observes selectivity 0 (every probe of it returns nothing).
        """
        index = self._groups.get((relation, arity, signature))
        if index is None:
            return None
        bucket = self._relations.get((relation, arity))
        if bucket is None or not index:
            return 0.0
        return len(bucket) / len(index)

    def cost_estimate(
        self,
        relation: str,
        arity: int,
        signature: tuple[int, ...],
    ) -> float:
        """The best available candidates-per-probe estimate for one signature.

        Two tiers, most-informed first: the built signature index's
        structural average (``bucket / groups``), then the static fail-first
        guess (``bucket / 4^determined``).
        """
        structural = self.selectivity(relation, arity, signature)
        if structural is not None:
            return structural
        bucket = self._relations.get((relation, arity))
        size = len(bucket) if bucket is not None else 0
        return size / (4.0 ** len(signature))

    def built_signatures(self) -> Iterator[tuple[str, int, tuple[int, ...]]]:
        """The ``(relation, arity, signature)`` triples with built indexes."""
        return iter(self._groups)
