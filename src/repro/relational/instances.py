"""Set and bag database instances.

A *set instance* ``I`` is a finite set of facts (ground atoms).  A *bag
instance* ``µ`` is a bag over a set instance: a function assigning a
non-negative multiplicity to every fact of the underlying set instance.  The
paper writes bags as ``I^µ = { t^µ(t) : t ∈ I }``.

Both classes are immutable value objects.  :class:`BagInstance` supports the
sub-bag relation ``⊆``, restriction, scaling, and convenient construction
from ``{fact: multiplicity}`` mappings.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.exceptions import InstanceError
from repro.relational.atoms import Atom
from repro.relational.schema import DatabaseSchema
from repro.relational.terms import Term, is_constant_like

__all__ = ["SetInstance", "BagInstance"]


def _check_fact(atom: Atom) -> Atom:
    if not isinstance(atom, Atom):
        raise InstanceError(f"{atom!r} is not an atom")
    if not atom.is_ground:
        raise InstanceError(f"instances may only contain ground atoms, got {atom}")
    return atom


class SetInstance:
    """A finite set of facts, i.e. a relational database under set semantics."""

    __slots__ = ("_facts",)

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        self._facts: frozenset[Atom] = frozenset(_check_fact(fact) for fact in facts)

    @classmethod
    def _trusted(cls, facts: frozenset[Atom]) -> "SetInstance":
        """Wrap facts the caller has already checked with :func:`_check_fact`."""
        instance = cls.__new__(cls)
        instance._facts = facts
        return instance

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Atom]:
        return iter(sorted(self._facts, key=str))

    def __len__(self) -> int:
        return len(self._facts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SetInstance):
            return self._facts == other._facts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._facts)

    def __repr__(self) -> str:
        inner = ", ".join(str(fact) for fact in self)
        return f"SetInstance({{{inner}}})"

    # ------------------------------------------------------------------ #
    # Relational structure
    # ------------------------------------------------------------------ #
    @property
    def facts(self) -> frozenset[Atom]:
        """The underlying frozenset of facts."""
        return self._facts

    def active_domain(self) -> frozenset[Term]:
        """``adom(I)``: every constant occurring in some fact."""
        domain: set[Term] = set()
        for fact in self._facts:
            domain.update(term for term in fact.terms if is_constant_like(term))
        return frozenset(domain)

    def schema(self) -> DatabaseSchema:
        """The database schema induced by the facts."""
        return DatabaseSchema.from_atoms(self._facts)

    def relation(self, name: str) -> frozenset[Atom]:
        """All facts of the relation *name*."""
        return frozenset(fact for fact in self._facts if fact.relation == name)

    def union(self, other: "SetInstance") -> "SetInstance":
        """Set union of two instances."""
        return SetInstance(self._facts | other._facts)

    def restrict(self, facts: Iterable[Atom]) -> "SetInstance":
        """The sub-instance containing only the given facts (intersection)."""
        return SetInstance(self._facts & frozenset(facts))

    def issubset(self, other: "SetInstance") -> bool:
        """``True`` when every fact of ``self`` belongs to *other*."""
        return self._facts <= other._facts


class BagInstance:
    """A bag over a set instance: facts with positive integer multiplicities.

    Facts mapped to multiplicity ``0`` are dropped, so the *support* of the
    bag (:meth:`support`) is exactly the set of facts with positive
    multiplicity.  ``bag[fact]`` returns ``0`` for facts outside the support,
    matching the paper's convention that ``µ(t) = 0`` for absent tuples.
    """

    __slots__ = ("_multiplicities", "_support")

    def __init__(self, multiplicities: Mapping[Atom, int] | Iterable[tuple[Atom, int]] = ()) -> None:
        items = dict(multiplicities)
        cleaned: dict[Atom, int] = {}
        for fact, count in items.items():
            _check_fact(fact)
            if not isinstance(count, int) or isinstance(count, bool):
                raise InstanceError(f"multiplicity of {fact} must be an int, got {count!r}")
            if count < 0:
                raise InstanceError(f"multiplicity of {fact} must be non-negative, got {count}")
            if count > 0:
                cleaned[fact] = count
        self._multiplicities: dict[Atom, int] = cleaned

    @classmethod
    def _trusted(cls, multiplicities: dict[Atom, int]) -> "BagInstance":
        """Wrap positive ``int`` multiplicities of facts already checked.

        The caller has run :func:`_check_fact` on every fact (once, for a
        whole family of bags over the same facts) and dropped zero
        multiplicities; *multiplicities* is taken as is, not copied.
        """
        instance = cls.__new__(cls)
        instance._multiplicities = multiplicities
        return instance

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def uniform(cls, instance: SetInstance | Iterable[Atom], multiplicity: int = 1) -> "BagInstance":
        """A bag assigning the same multiplicity to every fact of *instance*."""
        return cls({fact: multiplicity for fact in instance})

    @classmethod
    def from_counts(cls, counts: Mapping[Atom, int]) -> "BagInstance":
        """Alias of the constructor, for symmetry with :meth:`uniform`."""
        return cls(counts)

    # ------------------------------------------------------------------ #
    # Mapping-like protocol
    # ------------------------------------------------------------------ #
    def __getitem__(self, fact: Atom) -> int:
        return self._multiplicities.get(fact, 0)

    def __contains__(self, fact: object) -> bool:
        return fact in self._multiplicities

    def __iter__(self) -> Iterator[Atom]:
        return iter(sorted(self._multiplicities, key=str))

    def __len__(self) -> int:
        return len(self._multiplicities)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BagInstance):
            return self._multiplicities == other._multiplicities
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._multiplicities.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{fact}^{count}" for fact, count in self.items())
        return f"BagInstance({{{inner}}})"

    def items(self) -> Iterator[tuple[Atom, int]]:
        """Pairs ``(fact, multiplicity)`` in a deterministic order."""
        return iter(sorted(self._multiplicities.items(), key=lambda item: str(item[0])))

    # ------------------------------------------------------------------ #
    # Bag structure
    # ------------------------------------------------------------------ #
    def support(self) -> SetInstance:
        """The underlying set instance (facts with positive multiplicity).

        Built once and cached (bags are immutable), so repeated
        evaluations of the same bag share one support instance.  The facts
        were checked when the bag was built and are not checked again.
        """
        try:
            return self._support
        except AttributeError:
            support = SetInstance._trusted(frozenset(self._multiplicities))
            self._support = support
            return support

    def active_domain(self) -> frozenset[Term]:
        """``adom`` of the underlying set instance."""
        return self.support().active_domain()

    def total_multiplicity(self) -> int:
        """Sum of all multiplicities (the number of tuples counted with repetition)."""
        return sum(self._multiplicities.values())

    def multiplicity(self, fact: Atom) -> int:
        """Multiplicity of *fact* (``0`` if absent)."""
        return self[fact]

    def is_subbag_of(self, other: "BagInstance") -> bool:
        """The sub-bag relation ``µ1 ⊆ µ2`` of the paper."""
        return all(count <= other[fact] for fact, count in self._multiplicities.items())

    def restrict(self, facts: Iterable[Atom]) -> "BagInstance":
        """The restriction of the bag to the given set of facts."""
        wanted = frozenset(facts)
        return BagInstance({fact: count for fact, count in self._multiplicities.items() if fact in wanted})

    def scale(self, factor: int) -> "BagInstance":
        """Multiply every multiplicity by a non-negative integer factor."""
        if factor < 0:
            raise InstanceError(f"scale factor must be non-negative, got {factor}")
        return BagInstance({fact: count * factor for fact, count in self._multiplicities.items()})

    def updated(self, fact: Atom, multiplicity: int) -> "BagInstance":
        """A copy of the bag with the multiplicity of *fact* replaced."""
        counts = dict(self._multiplicities)
        counts[_check_fact(fact)] = multiplicity
        return BagInstance(counts)

    def merge_max(self, other: "BagInstance") -> "BagInstance":
        """Pointwise maximum of two bags (the smallest common super-bag)."""
        counts = dict(self._multiplicities)
        for fact, count in other._multiplicities.items():
            counts[fact] = max(counts.get(fact, 0), count)
        return BagInstance(counts)

    def merge_sum(self, other: "BagInstance") -> "BagInstance":
        """Pointwise sum of two bags (bag union with additive multiplicities)."""
        counts = dict(self._multiplicities)
        for fact, count in other._multiplicities.items():
            counts[fact] = counts.get(fact, 0) + count
        return BagInstance(counts)
