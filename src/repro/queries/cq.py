"""Conjunctive queries with bag representation.

Under bag semantics the *syntactic repetition* of atoms inside a query body
matters: the paper models a conjunctive query (CQ) as the pair
``⟨x, µ_q⟩`` where ``x`` is the tuple of free variables and ``µ_q`` is the
*body multiplicity*, a bag over the set of distinct body atoms counting how
many times each atom occurs in the query expression.

:class:`ConjunctiveQuery` stores exactly this pair.  It offers:

* structural accessors (variables, existential variables, active domain,
  projection-freeness, degree = total number of atom occurrences);
* the canonical instance ``I_q`` (variables frozen to canonical constants);
* substitution application following Equation (1) of the paper, which *sums*
  the multiplicities of atoms that collapse onto each other;
* grounding ``q(t)`` on a tuple of constants unifiable with the head;
* renaming utilities used by the homomorphism machinery and the workload
  generators.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import (
    NotProjectionFreeError,
    QueryError,
    UnificationError,
)
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance, SetInstance
from repro.relational.schema import DatabaseSchema
from repro.relational.substitutions import Substitution, canonical_substitution, unify_tuples
from repro.relational.terms import (
    CanonicalConstant,
    Constant,
    Term,
    Variable,
    is_constant_like,
)

__all__ = ["ConjunctiveQuery", "BodyAtom"]


class BodyAtom:
    """A body atom together with its multiplicity.

    This is a light-weight read-only view handed out by
    :meth:`ConjunctiveQuery.body_items`, convenient for display and for the
    encoders in :mod:`repro.core.encoding`.
    """

    __slots__ = ("atom", "multiplicity")

    def __init__(self, atom: Atom, multiplicity: int) -> None:
        self.atom = atom
        self.multiplicity = multiplicity

    def __iter__(self):
        return iter((self.atom, self.multiplicity))

    def __repr__(self) -> str:
        return f"BodyAtom({self.atom}, {self.multiplicity})"


class ConjunctiveQuery:
    """A conjunctive query in bag representation ``⟨x, µ_q⟩``.

    Parameters
    ----------
    head:
        The tuple of free variables ``x`` (repetitions allowed, e.g.
        ``q(x, x) ← R(x)``).
    body:
        Either an iterable of atoms (repetitions count) or a mapping from
        atoms to positive multiplicities.
    name:
        Optional display name used by the pretty printer (defaults to ``q``).

    The query must be *safe*: every head variable must occur in the body.
    The body must be non-empty.
    """

    __slots__ = ("_head", "_body", "_name", "_hash", "_body_atoms")

    def __init__(
        self,
        head: Sequence[Variable],
        body: Mapping[Atom, int] | Iterable[Atom],
        name: str = "q",
    ) -> None:
        head_tuple = tuple(head)
        for variable in head_tuple:
            if not isinstance(variable, Variable):
                raise QueryError(f"head positions must be variables, got {variable!r}")

        if isinstance(body, Mapping):
            raw_counts = dict(body)
        else:
            raw_counts = {}
            for atom in body:
                raw_counts[atom] = raw_counts.get(atom, 0) + 1

        counts: dict[Atom, int] = {}
        for atom, multiplicity in raw_counts.items():
            if not isinstance(atom, Atom):
                raise QueryError(f"body elements must be atoms, got {atom!r}")
            if not isinstance(multiplicity, int) or isinstance(multiplicity, bool):
                raise QueryError(f"body multiplicity of {atom} must be an int, got {multiplicity!r}")
            if multiplicity < 0:
                raise QueryError(f"body multiplicity of {atom} must be non-negative, got {multiplicity}")
            if multiplicity > 0:
                counts[atom] = multiplicity

        if not counts:
            raise QueryError("a conjunctive query must have a non-empty body")

        body_variables: set[Variable] = set()
        for atom in counts:
            body_variables.update(atom.variables())
        missing = [variable for variable in head_tuple if variable not in body_variables]
        if missing:
            raise QueryError(
                f"unsafe query: head variables {sorted(str(v) for v in missing)} do not occur in the body"
            )

        self._head: tuple[Variable, ...] = head_tuple
        self._body: dict[Atom, int] = dict(sorted(counts.items(), key=lambda item: str(item[0])))
        self._name: str = name
        self._hash: int | None = None

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Display name of the query."""
        return self._name

    @property
    def head(self) -> tuple[Variable, ...]:
        """The tuple of free variables ``x``."""
        return self._head

    @property
    def arity(self) -> int:
        """Number of head positions (the arity of the answer relation)."""
        return len(self._head)

    @property
    def body(self) -> Mapping[Atom, int]:
        """The body multiplicity ``µ_q`` as a read-only mapping."""
        return dict(self._body)

    def body_atoms(self) -> tuple[Atom, ...]:
        """The distinct atoms of the body, in a deterministic order.

        The tuple is built once and cached: queries are immutable, so every
        caller shares one tuple.
        """
        try:
            return self._body_atoms
        except AttributeError:
            atoms = tuple(self._body)
            object.__setattr__(self, "_body_atoms", atoms)
            return atoms

    def body_items(self) -> tuple[BodyAtom, ...]:
        """The body as ``(atom, multiplicity)`` views, deterministic order."""
        return tuple(BodyAtom(atom, count) for atom, count in self._body.items())

    def multiplicity(self, atom: Atom) -> int:
        """``µ_q(atom)``: how many times *atom* occurs in the body (0 if absent)."""
        return self._body.get(atom, 0)

    def degree(self) -> int:
        """Total number of atom occurrences (sum of body multiplicities)."""
        return sum(self._body.values())

    def __len__(self) -> int:
        return len(self._body)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._body)

    # ------------------------------------------------------------------ #
    # Variables and constants
    # ------------------------------------------------------------------ #
    def variables(self) -> frozenset[Variable]:
        """``var(q)``: every variable occurring in the query."""
        result: set[Variable] = set(self._head)
        for atom in self._body:
            result.update(atom.variables())
        return frozenset(result)

    def head_variables(self) -> frozenset[Variable]:
        """The set of distinct free variables."""
        return frozenset(self._head)

    def existential_variables(self) -> frozenset[Variable]:
        """Body variables that are not free (the ``y`` of ``∃y ⋀ R(x, y)``)."""
        return self.variables() - self.head_variables()

    def is_projection_free(self) -> bool:
        """``True`` when the query has no existential variables."""
        return not self.existential_variables()

    def require_projection_free(self) -> None:
        """Raise :class:`NotProjectionFreeError` unless the query is projection-free."""
        existential = self.existential_variables()
        if existential:
            raise NotProjectionFreeError(
                f"query {self._name} has existential variables "
                f"{sorted(str(v) for v in existential)}"
            )

    def active_domain(self) -> frozenset[Term]:
        """``adom(q)``: every constant occurring in the query."""
        constants: set[Term] = set()
        for atom in self._body:
            constants.update(atom.constants())
        return frozenset(constants)

    def language_constants(self) -> frozenset[Constant]:
        """Language constants occurring in the query."""
        return frozenset(c for c in self.active_domain() if isinstance(c, Constant))

    def canonical_constants(self) -> frozenset[CanonicalConstant]:
        """Canonical constants occurring in the query (normally empty for
        user-written queries, non-empty after grounding on a probe tuple)."""
        return frozenset(c for c in self.active_domain() if isinstance(c, CanonicalConstant))

    def relation_names(self) -> frozenset[str]:
        """Relation names used by the body."""
        return frozenset(atom.relation for atom in self._body)

    def schema(self) -> DatabaseSchema:
        """The database schema induced by the body atoms."""
        return DatabaseSchema.from_atoms(self._body)

    def is_boolean(self) -> bool:
        """``True`` when the query has no free variables."""
        return not self._head

    def is_ground(self) -> bool:
        """``True`` when the body contains no variables at all."""
        return all(atom.is_ground for atom in self._body)

    # ------------------------------------------------------------------ #
    # Canonical instance and grounding
    # ------------------------------------------------------------------ #
    def canonical_instance(self) -> SetInstance:
        """The canonical set instance ``I_q``.

        Every variable ``x`` of the body is replaced by its canonical
        constant ``x̂``; the result is a set of facts.
        """
        freeze = canonical_substitution(self.variables())
        return SetInstance(freeze.apply_atom(atom) for atom in self._body)

    def canonical_bag(self) -> BagInstance:
        """The canonical instance seen as a bag, with the body multiplicities.

        This is the bag assigning to each frozen atom the (summed) body
        multiplicity of its pre-images — occasionally useful as a "most
        syntactic" bag over ``I_q``.
        """
        freeze = canonical_substitution(self.variables())
        counts: dict[Atom, int] = {}
        for atom, multiplicity in self._body.items():
            frozen = freeze.apply_atom(atom)
            counts[frozen] = counts.get(frozen, 0) + multiplicity
        return BagInstance(counts)

    def apply_substitution(self, substitution: Substitution, name: str | None = None) -> "ConjunctiveQuery":
        """The query ``σ(q)`` with body multiplicity given by Equation (1).

        Atoms of the body that collapse onto the same image under ``σ`` have
        their multiplicities *summed*, and the head becomes ``σ(x)``.  Head
        positions mapped to constants are removed from the head (the result
        is then a partially ground query, as produced by probe-tuple
        grounding); positions mapped to variables stay.
        """
        new_counts: dict[Atom, int] = {}
        for atom, multiplicity in self._body.items():
            image = substitution.apply_atom(atom)
            new_counts[image] = new_counts.get(image, 0) + multiplicity
        new_head = tuple(
            term for term in substitution.apply_tuple(self._head) if isinstance(term, Variable)
        )
        return ConjunctiveQuery(new_head, new_counts, name=name or self._name)

    def ground(self, probe: Sequence[Term], name: str | None = None) -> "ConjunctiveQuery":
        """The Boolean query ``q(t)`` obtained by unifying the head with *probe*.

        *probe* must be a tuple of constants (language or canonical) of the
        same length as the head and consistent with repeated head variables;
        otherwise :class:`UnificationError` is raised.  The resulting query
        has an empty head.
        """
        probe_tuple = tuple(probe)
        for term in probe_tuple:
            if not is_constant_like(term):
                raise UnificationError(f"probe tuples must contain constants, got {term!r}")
        substitution = unify_tuples(self._head, probe_tuple)
        grounded = self.apply_substitution(substitution, name=name or f"{self._name}@probe")
        return ConjunctiveQuery((), grounded.body, name=grounded.name)

    def rename_variables(self, renaming: Mapping[Variable, Variable], name: str | None = None) -> "ConjunctiveQuery":
        """Rename variables via an injective mapping (others stay fixed)."""
        images = list(renaming.values())
        if len(set(images)) != len(images):
            raise QueryError("variable renaming must be injective")
        substitution = Substitution(dict(renaming))
        new_head = tuple(substitution.apply_term(v) for v in self._head)
        new_body: dict[Atom, int] = {}
        for atom, multiplicity in self._body.items():
            image = substitution.apply_atom(atom)
            new_body[image] = new_body.get(image, 0) + multiplicity
        return ConjunctiveQuery(tuple(v for v in new_head if isinstance(v, Variable)), new_body, name=name or self._name)

    def with_name(self, name: str) -> "ConjunctiveQuery":
        """A copy of the query with a different display name."""
        return ConjunctiveQuery(self._head, self._body, name=name)

    def with_head(self, head: Sequence[Variable]) -> "ConjunctiveQuery":
        """A copy of the query with a different head over the same body."""
        return ConjunctiveQuery(tuple(head), self._body, name=self._name)

    def set_body(self) -> "ConjunctiveQuery":
        """The query with all body multiplicities collapsed to 1.

        Under set semantics atom repetition is irrelevant; this helper gives
        the "set version" of the query used by the set-containment baseline.
        """
        return ConjunctiveQuery(self._head, {atom: 1 for atom in self._body}, name=self._name)

    def conjoin(self, other: "ConjunctiveQuery", name: str | None = None) -> "ConjunctiveQuery":
        """The conjunction ``q ∧ q'``: bodies are bag-unioned, heads concatenated.

        Used by the hardness reduction of Theorem 5.4 (``q_T ∧ q_G``).
        """
        counts = dict(self._body)
        for atom, multiplicity in other._body.items():
            counts[atom] = counts.get(atom, 0) + multiplicity
        return ConjunctiveQuery(self._head + other._head, counts, name=name or f"{self._name}&{other._name}")

    # ------------------------------------------------------------------ #
    # Equality / display
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self._head == other._head and self._body == other._body

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._head, frozenset(self._body.items())))
        return self._hash

    def __str__(self) -> str:
        head_args = ", ".join(str(v) for v in self._head)
        parts = []
        for atom, multiplicity in self._body.items():
            if multiplicity == 1:
                parts.append(str(atom))
            else:
                parts.append(f"{atom.relation}^{multiplicity}({', '.join(str(t) for t in atom.terms)})")
        return f"{self._name}({head_args}) <- {', '.join(parts)}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self})"
