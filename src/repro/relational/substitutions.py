"""Substitutions and homomorphisms over terms and atoms.

A :class:`Substitution` maps variables to terms.  Applying a substitution to
a term, an atom, a tuple of terms, or an iterable of atoms replaces every
occurrence of a variable in its domain with the corresponding image and
leaves everything else untouched — exactly the ``σ(α)`` operation of the
paper.  Homomorphisms between sets of atoms (and containment mappings
between queries) are substitutions with extra conditions, implemented in
:mod:`repro.evaluation.homomorphisms`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.exceptions import SubstitutionError, UnificationError
from repro.relational.atoms import Atom
from repro.relational.terms import (
    CanonicalConstant,
    Term,
    Variable,
    canonical,
    is_constant_like,
    is_term,
)

__all__ = ["Substitution", "unify_tuples", "canonical_substitution"]


class Substitution(Mapping[Variable, Term]):
    """An immutable mapping from variables to terms.

    The paper writes ``σ = {x1 ↦ c1; ...; xn ↦ cn}``.  Targets may be any
    term (constants, canonical constants or variables); identity bindings
    ``x ↦ x`` are dropped at construction time so that the *domain* of the
    substitution is exactly the set of variables it actually moves or binds.
    """

    __slots__ = ("_mapping",)

    def __init__(self, mapping: Mapping[Variable, Term] | Iterable[tuple[Variable, Term]] = ()) -> None:
        items = dict(mapping)
        cleaned: dict[Variable, Term] = {}
        for source, target in items.items():
            if not isinstance(source, Variable):
                raise SubstitutionError(f"substitution domain must contain variables, got {source!r}")
            if not is_term(target):
                raise SubstitutionError(f"substitution image must be a term, got {target!r}")
            if source == target:
                continue
            cleaned[source] = target
        self._mapping: dict[Variable, Term] = cleaned

    @classmethod
    def _trusted(cls, mapping: dict[Variable, Term]) -> "Substitution":
        """Wrap a mapping the caller guarantees is already clean.

        Internal fast path for the engine executors, which build thousands
        of substitutions per enumeration from bindings that are Variables
        and Terms by construction, with identity bindings already dropped.
        The dict is adopted, not copied — the caller must hand ownership
        over.
        """
        substitution = cls.__new__(cls)
        substitution._mapping = mapping
        return substitution

    # ------------------------------------------------------------------ #
    # Mapping protocol
    # ------------------------------------------------------------------ #
    def __getitem__(self, key: Variable) -> Term:
        return self._mapping[key]

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def __hash__(self) -> int:
        return hash(frozenset(self._mapping.items()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Substitution):
            return self._mapping == other._mapping
        return NotImplemented

    def __repr__(self) -> str:
        inner = "; ".join(f"{src} -> {dst}" for src, dst in sorted(self._mapping.items()))
        return f"Substitution({{{inner}}})"

    def bindings(self) -> Mapping[Variable, Term]:
        """A read-only, uncopied view of the bindings, for hot loops over many substitutions.

        Its ``get``, ``keys`` and ``values`` run at plain-dict speed, and
        ``bindings().get(term, term)`` is :meth:`apply_term` for every term.
        """
        return MappingProxyType(self._mapping)

    # ------------------------------------------------------------------ #
    # Application
    # ------------------------------------------------------------------ #
    def apply_term(self, term: Term) -> Term:
        """Image of a single term (non-variables and unbound variables are fixed)."""
        if isinstance(term, Variable):
            return self._mapping.get(term, term)
        return term

    def apply_tuple(self, terms: Iterable[Term]) -> tuple[Term, ...]:
        """Image of a tuple of terms, component-wise."""
        return tuple(self.apply_term(term) for term in terms)

    def apply_atom(self, atom: Atom) -> Atom:
        """Image of an atom: ``σ(R(t1,...,tn)) = R(σ(t1),...,σ(tn))``."""
        return Atom(atom.relation, self.apply_tuple(atom.terms))

    def apply_atoms(self, atoms: Iterable[Atom]) -> tuple[Atom, ...]:
        """Image of an iterable of atoms, in order (duplicates may appear)."""
        return tuple(self.apply_atom(atom) for atom in atoms)

    def __call__(self, obj):
        """Polymorphic application to a term, atom, or iterable of either."""
        if isinstance(obj, Atom):
            return self.apply_atom(obj)
        if is_term(obj):
            return self.apply_term(obj)  # type: ignore[arg-type]
        if isinstance(obj, (tuple, list, frozenset, set)):
            converted = [self(item) for item in obj]
            if isinstance(obj, tuple):
                return tuple(converted)
            if isinstance(obj, list):
                return converted
            return frozenset(converted)
        raise SubstitutionError(f"cannot apply a substitution to {obj!r}")

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def compose(self, other: "Substitution") -> "Substitution":
        """The composition ``other ∘ self``: first ``self``, then ``other``.

        ``(self.compose(other))(x) == other(self(x))`` for every term ``x``.
        """
        combined: dict[Variable, Term] = {}
        for source, target in self._mapping.items():
            combined[source] = other.apply_term(target)
        for source, target in other._mapping.items():
            combined.setdefault(source, target)
        return Substitution(combined)

    def restrict(self, variables: Iterable[Variable]) -> "Substitution":
        """Restriction of the substitution to a set of variables."""
        wanted = set(variables)
        return Substitution({v: t for v, t in self._mapping.items() if v in wanted})

    def extend(self, variable: Variable, target: Term) -> "Substitution":
        """Return a new substitution with one extra binding.

        Raises :class:`SubstitutionError` if *variable* is already bound to a
        different target.
        """
        current = self._mapping.get(variable)
        if current is not None and current != target:
            raise SubstitutionError(
                f"conflicting bindings for {variable}: {current} vs {target}"
            )
        if current == target or variable == target:
            return self
        extended = dict(self._mapping)
        extended[variable] = target
        return Substitution(extended)

    def merge(self, other: "Substitution") -> "Substitution":
        """Union of two substitutions; raises on conflicting bindings."""
        merged = dict(self._mapping)
        for source, target in other._mapping.items():
            existing = merged.get(source)
            if existing is not None and existing != target:
                raise SubstitutionError(
                    f"conflicting bindings for {source}: {existing} vs {target}"
                )
            merged[source] = target
        return Substitution(merged)

    def is_ground_on(self, variables: Iterable[Variable]) -> bool:
        """``True`` when every variable in *variables* maps to a constant."""
        return all(is_constant_like(self.apply_term(variable)) for variable in variables)

    @property
    def domain(self) -> frozenset[Variable]:
        """Set of variables moved by the substitution."""
        return frozenset(self._mapping)

    @property
    def image(self) -> frozenset[Term]:
        """Set of terms in the range of the substitution."""
        return frozenset(self._mapping.values())

    @classmethod
    def identity(cls) -> "Substitution":
        """The empty (identity) substitution."""
        return cls()


def unify_tuples(pattern: Iterable[Term], target: Iterable[Term]) -> Substitution:
    """Unify a tuple of terms *pattern* with a tuple of terms *target*.

    The result is the substitution ``σ`` on the variables of *pattern* such
    that ``σ(pattern) == target``, mirroring the paper's notion of a tuple of
    free variables being *unifiable* with a tuple of constants.  Constants in
    the pattern must match the target exactly; repeated variables must be
    mapped consistently.  Raises :class:`UnificationError` otherwise.
    """
    pattern = tuple(pattern)
    target = tuple(target)
    if len(pattern) != len(target):
        raise UnificationError(
            f"cannot unify tuples of different lengths {len(pattern)} and {len(target)}"
        )
    bindings: dict[Variable, Term] = {}
    for source, destination in zip(pattern, target):
        if isinstance(source, Variable):
            existing = bindings.get(source)
            if existing is not None and existing != destination:
                raise UnificationError(
                    f"variable {source} would need to map to both {existing} and {destination}"
                )
            bindings[source] = destination
        elif source != destination:
            raise UnificationError(f"constant {source} does not match {destination}")
    return Substitution(bindings)


def canonical_substitution(variables: Iterable[Variable]) -> Substitution:
    """The substitution freezing each variable ``x`` to its canonical ``x̂``.

    Applying it to the body of a query yields the canonical instance of the
    query (the ``I_q`` of the paper).
    """
    return Substitution({variable: canonical(variable) for variable in variables})
