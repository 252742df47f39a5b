"""The interned backend: integer-only plans, compiled once per query shape.

This is the production engine backend (``naive`` is the reference).  It
answers the same three questions — ``iterate`` / ``count`` / ``exists`` —
but its compiled artefacts never touch a :class:`~repro.relational.terms.Term`
inside the inner loop:

* the target is interned once into an :class:`~repro.engine.interning.InternedTarget`
  (columnar ``(relation, arity)`` buckets of tuple-of-int rows, packed-key
  signature group indexes);
* a plan is compiled in two parts.  A target-free :class:`PlanTemplate`
  fixes the join order and the op streams of one *canonical key*
  (:func:`canonical_source`): the source up to a renaming of its
  variables, which positions are fixed or constant, and the target's
  bucket sizes.  Binding the template to a target (:func:`bind_template`)
  looks up one signature index per step and interns the step's constants;
* join steps are ordered greedily fail-first by the static estimate
  ``bucket / 4^determined``, so renamed requests share one template;
* every plan step addresses integer column positions: constants become
  term ids, variables become dense *slot* numbers into a flat binding
  list, and candidate lookup keys are packed integers.

The executor is an iterative loop with an explicit binding trail and an
early-exit ``exists`` mode, solution-for-solution interchangeable with the
naive reference; substitutions are materialised only in ``iterate`` mode,
by translating slot bindings back through the backend's
:class:`~repro.engine.interning.TermDictionary`.

:class:`ExecutionStats` counts candidates tried and solutions found, which
the test-suite uses to prove that ``exists`` genuinely early-exits instead
of enumerating everything and taking the first element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from repro.engine.interning import ID_BITS, InternedTarget, TermDictionary
from repro.faults.runtime import TICK_INTERVAL, tick_handle
from repro.exceptions import ReproError
from repro.relational.atoms import Atom
from repro.relational.substitutions import Substitution
from repro.relational.terms import Term, Variable

__all__ = [
    "CanonicalSource",
    "ExecutionStats",
    "InternedPlan",
    "InternedStep",
    "PlanTemplate",
    "TemplateStep",
    "bind_template",
    "canonical_source",
    "compile_interned_plan",
    "compile_template",
    "interned_count",
    "interned_exists",
    "interned_iterate",
]

@dataclass
class ExecutionStats:
    """Counters accumulated by plan executions that opt into stats."""

    candidates_tried: int = 0
    solutions_found: int = 0
    executions: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        self.candidates_tried += other.candidates_tried
        self.solutions_found += other.solutions_found
        self.executions += other.executions


@dataclass
class _Run:
    """Mutable per-execution state shared by the mode wrappers."""

    candidates: int = 0
    solutions: int = 0


class InternedStep:
    """One integer-compiled join step.

    ``group`` is the packed-key signature index the step probes (``None``
    for an empty signature, where ``bucket`` holds every row), ``key_ops``
    assembles the packed probe key — each op is one int: a slot number when
    non-negative, a constant term id encoded as ``-1 - id`` otherwise —
    and ``new_ops`` lists the ``(column, slot)`` pairs that bind fresh
    slots.
    """

    __slots__ = ("atom", "group", "bucket", "key_ops", "new_ops")

    def __init__(
        self,
        atom: Atom,
        group: dict[int, tuple[tuple[int, ...], ...]] | None,
        bucket: tuple[tuple[int, ...], ...],
        key_ops: tuple[int, ...],
        new_ops: tuple[tuple[int, int], ...],
    ) -> None:
        self.atom = atom
        self.group = group
        self.bucket = bucket
        self.key_ops = key_ops
        self.new_ops = new_ops


@dataclass(frozen=True)
class InternedPlan:
    """A fully bound integer plan: steps, slot layout, and the fixed contract.

    Steps are partitioned at compile time into ``static_steps`` — pure
    membership filters whose keys depend only on constants and pre-fixed
    slots (at most one candidate each, signature covers the whole atom) —
    and the ``steps`` the search machinery actually backtracks over.
    Static filters are conjunctive preconditions independent of every
    search choice, so hoisting them preserves the solution set exactly
    while the hot path probes them in one flat scan.  Projection-free
    containment folds compile to static filters only.
    """

    steps: tuple[InternedStep, ...]
    static_steps: tuple[InternedStep, ...]
    slot_variables: tuple[Variable, ...]
    slot_of: dict[Variable, int]
    #: The id of each slot's own variable, for dropping identity bindings
    #: (``x -> x``) when materialising substitutions.
    self_ids: tuple[int, ...]
    fixed_variables: frozenset[Variable]
    source_variables: frozenset[Variable]
    #: ``(variable, slot)`` pairs of the compiled fixed variables, in slot
    #: order — the executor's fast path binds exactly these from the fixed
    #: mapping instead of re-deriving the layout per execution.
    fixed_slots: tuple[tuple[Variable, int], ...] = ()

    @property
    def num_steps(self) -> int:
        return len(self.static_steps) + len(self.steps)

    def describe(self) -> str:
        """The cost-ordered join sequence with per-step signatures."""
        lines = [
            f"interned plan: {len(self.static_steps)} static filters + "
            f"{len(self.steps)} search steps, {len(self.slot_variables)} slots"
        ]
        for label, steps in (("filter", self.static_steps), ("step", self.steps)):
            for index, step in enumerate(steps):
                signature = ", ".join(
                    str(position) for position, _ in _signature_of(step)
                ) or "none"
                lines.append(f"  {label} {index}: {step.atom}  [bound positions: {signature}]")
        return "\n".join(lines)

    def check_fixed(self, fixed: Mapping[Variable, Term]) -> None:
        """Reject execution-time bindings the plan was not compiled for.

        A source variable bound at execution time must have been fixed at
        compile time, and every compiled fixed source variable must be
        bound; extra bindings for non-source variables are allowed.
        """
        unplanned = [
            variable
            for variable in fixed
            if variable not in self.fixed_variables and variable in self.source_variables
        ]
        if unplanned:
            raise ReproError(
                "plan was compiled without fixed bindings for "
                f"{sorted(str(v) for v in unplanned)}; recompile with the full fixed-variable set"
            )
        missing = [
            variable
            for variable in self.fixed_variables
            if variable in self.source_variables and variable not in fixed
        ]
        if missing:
            raise ReproError(
                "plan was compiled expecting fixed bindings for "
                f"{sorted(str(v) for v in missing)}; pass values for them at execution time"
            )


def _signature_of(step: InternedStep) -> list[tuple[int, int]]:
    """Recover ``(position, op)`` pairs for display (positions not stored hot)."""
    bound_positions = [
        position
        for position, term in enumerate(step.atom.terms)
        if not any(position == new_position for new_position, _ in step.new_ops)
    ]
    return list(zip(bound_positions, step.key_ops))


#: The kind of one source position in a canonical key.
FREE, FIXED, CONSTANT = 0, 1, 2


class TemplateStep(NamedTuple):
    """One step of a :class:`PlanTemplate`, in canonical numbering.

    ``atom`` indexes the canonical atom order, ``signature`` lists the
    positions the step probes on, ``key_ops`` holds a slot number for a
    bound variable and ``-1 - position`` for a constant (interned at bind
    time, so ``constants`` says whether the step has any), and ``new_ops``
    the ``(position, slot)`` pairs that bind fresh slots.
    """

    atom: int
    signature: tuple[int, ...]
    key_ops: tuple[int, ...]
    constants: bool
    new_ops: tuple[tuple[int, int], ...]


class PlanTemplate(NamedTuple):
    """A target-free plan: the join order and op streams of one canonical key.

    It holds no term ids and no atoms, so every source whose canonical key
    equals the template's binds it, whatever its variable names and
    constant values (:func:`bind_template`).  ``sources`` counts the
    source variables, which take the first slots; ``fixed_slots`` lists
    the slots of the fixed variables in order.
    """

    static_steps: tuple[TemplateStep, ...]
    steps: tuple[TemplateStep, ...]
    sources: int
    fixed_slots: tuple[int, ...]


class CanonicalSource(NamedTuple):
    """A source in canonical form: the plan-template key and what binds it.

    ``key`` is one ``(relation, bucket size, variable numbers, kinds)``
    entry per deduplicated source atom, in canonical order, and the number
    of fixed variables that occur in no source atom; constants number
    ``-1``.  ``atoms`` is the canonical atom order, and ``variables`` the
    slot layout: source variables by first occurrence in that order, then
    the other fixed variables by name.
    """

    key: tuple
    atoms: tuple[Atom, ...]
    variables: tuple[Variable, ...]


def canonical_source(
    target: InternedTarget, source_atoms: Iterable[Atom], fixed_variables: frozenset[Variable]
) -> CanonicalSource:
    """The name-free canonical form of *source_atoms* against *target*.

    The deduplicated atoms are sorted by a shape that uses no name —
    relation, then each position's kind (:data:`FREE` or :data:`FIXED`
    variable, or :data:`CONSTANT`); equal shapes keep their source order —
    and variables are numbered by first occurrence in that order.  Equal
    keys therefore pair the atoms of two sources position by position under
    one bijective renaming of their variables, with the same relations,
    the same fixed variables and constants in the same places, and the
    same target bucket sizes: everything a plan's join order depends on.
    """
    shapes = {
        atom: (
            atom.relation,
            tuple(
                [
                    (FIXED if term in fixed_variables else FREE)
                    if isinstance(term, Variable)
                    else CONSTANT
                    for term in atom.terms
                ]
            ),
        )
        for atom in source_atoms
    }
    atoms = tuple(sorted(shapes, key=shapes.__getitem__))
    numbers: dict[Variable, int] = {}
    key = []
    for atom in atoms:
        relation, kinds = shapes[atom]
        terms = atom.terms
        key.append(
            (
                relation,
                len(target.rows(relation, len(terms))),
                tuple(
                    [
                        -1 if kind == CONSTANT else numbers.setdefault(term, len(numbers))
                        for term, kind in zip(terms, kinds)
                    ]
                ),
                kinds,
            )
        )
    others = sorted([v for v in fixed_variables if v not in numbers], key=lambda v: v.name)
    return CanonicalSource((tuple(key), len(others)), atoms, (*numbers, *others))


def compile_template(key: tuple) -> PlanTemplate:
    """Compile the join order and op streams of one canonical key.

    The order is greedy fail-first: the next step is the atom with the
    fewest expected candidates per probe, ``bucket / 4^determined``, where
    ``determined`` counts its constants and bound variables; ties prefer
    more determined positions, then canonical order.  The order is a
    function of the key alone, so a template never depends on what the
    cache or the target has built before.

    Filter steps (no fresh slots) whose keys read only constants and fixed
    slots hold independently of every search choice; they become the
    template's static steps, which the executor probes once, up front.
    """
    atoms, others = key
    fixed = {
        number
        for _, _, numbers, kinds in atoms
        for number, kind in zip(numbers, kinds)
        if kind == FIXED
    }
    sources = 1 + max((number for _, _, numbers, _ in atoms for number in numbers), default=-1)
    bound = set(fixed)

    def determined(index: int) -> tuple[int, ...]:
        return tuple(
            position
            for position, number in enumerate(atoms[index][2])
            if number < 0 or number in bound
        )

    def cost(index: int) -> tuple[float, int]:
        signature = determined(index)
        return atoms[index][1] / 4.0 ** len(signature), -len(signature)

    # ``min`` keeps the first of equal costs, so ties follow canonical order.
    remaining = list(range(len(atoms)))
    steps: list[TemplateStep] = []
    while remaining:
        index = remaining.pop(min(range(len(remaining)), key=lambda i: cost(remaining[i])))
        key_ops: list[int] = []
        new_ops: list[tuple[int, int]] = []
        for position, number in enumerate(atoms[index][2]):
            if number < 0:
                key_ops.append(-1 - position)
            elif number in bound:
                key_ops.append(number)
            else:
                new_ops.append((position, number))
        steps.append(
            TemplateStep(
                index, determined(index), tuple(key_ops), -1 in atoms[index][2], tuple(new_ops)
            )
        )
        bound.update(number for number in atoms[index][2] if number >= 0)

    static = tuple(
        step
        for step in steps
        if not step.new_ops and all(op < 0 or op in fixed for op in step.key_ops)
    )
    return PlanTemplate(
        static,
        tuple(step for step in steps if step not in static),
        sources,
        (*sorted(fixed), *range(sources, sources + others)),
    )


def bind_template(
    template: PlanTemplate,
    dictionary: TermDictionary,
    target: InternedTarget,
    source: CanonicalSource,
    fixed_variables: frozenset[Variable],
) -> InternedPlan:
    """Bind *template* to *target* for the source it was keyed from.

    One ``group_index`` lookup per step, the step's constants interned
    into the key ops, and the slots taken from the canonical numbering.
    """
    intern = dictionary.intern
    atoms = source.atoms

    def bind(step: TemplateStep) -> InternedStep:
        atom = atoms[step.atom]
        key_ops = step.key_ops
        if step.constants:
            terms = atom.terms
            key_ops = tuple([op if op >= 0 else -1 - intern(terms[-1 - op]) for op in key_ops])
        if step.signature:
            group = target.group_index(atom.relation, len(atom.terms), step.signature)
            return InternedStep(atom, group, (), key_ops, step.new_ops)
        rows = target.rows(atom.relation, len(atom.terms))
        return InternedStep(atom, None, rows, key_ops, step.new_ops)

    variables = source.variables
    return InternedPlan(
        steps=tuple([bind(step) for step in template.steps]),
        static_steps=tuple([bind(step) for step in template.static_steps]),
        slot_variables=variables,
        slot_of={variable: slot for slot, variable in enumerate(variables)},
        self_ids=tuple([intern(variable) for variable in variables]),
        fixed_variables=fixed_variables,
        source_variables=frozenset(variables[: template.sources]),
        fixed_slots=tuple([(variables[slot], slot) for slot in template.fixed_slots]),
    )


def compile_interned_plan(
    dictionary: TermDictionary,
    target: InternedTarget,
    source_atoms: Iterable[Atom],
    fixed_variables: frozenset[Variable],
) -> InternedPlan:
    """Compile an integer plan against an interned target, with no cache.

    The canonical form (:func:`canonical_source`) keys a template
    (:func:`compile_template`), which is bound to *target*
    (:func:`bind_template`).  :meth:`~repro.engine.backends.InternedBackend.plan`
    runs the same three steps with the template and the bound plan cached.
    """
    source = canonical_source(target, source_atoms, fixed_variables)
    return bind_template(compile_template(source.key), dictionary, target, source, fixed_variables)


def _solutions(plan: InternedPlan, binding: list[int], run: _Run) -> Iterator[list[int]]:
    """Core integer loop: yields the *live* binding list once per solution.

    Trail-based backtracking over list indexing and machine-int
    comparisons.  Callers must not retain the yielded list across
    iterations — ``iterate`` snapshots it, ``count`` and ``exists``
    consume it immediately.
    """
    steps = plan.steps
    n = len(steps)

    candidates = 0
    # Deadline/fault tick, fetched before any probe so that every execution
    # (static-only plans included) observes an already-expired deadline and
    # the ``executor.start`` site; when nothing is armed it is None and the
    # loop below pays one falsy integer test per iteration.
    tick = tick_handle()
    try:
        # The static preconditions: a flat conjunction of probes, at most
        # one candidate each, independent of every search choice below.
        for step in plan.static_steps:
            group = step.group
            if group is None:
                rows = step.bucket
            else:
                key = 0
                for op in step.key_ops:
                    key = (key << ID_BITS) | (binding[op] if op >= 0 else -1 - op)
                rows = group.get(key, ())
            if not rows:
                return
            candidates += 1

        if n == 0:
            run.solutions += 1
            yield binding
            return

        # Per-depth state: an iterator for steps that bind fresh slots, the
        # raw rows tuple for filter steps (full signature, one candidate).
        iterators: list[object] = [()] * n
        consumed = [False] * n
        trail: list[list[int]] = [[]] * n
        no_slots: list[int] = []
        last = n - 1

        depth = 0
        entering = True
        countdown = TICK_INTERVAL if tick is not None else 0
        while depth >= 0:
            if countdown:
                countdown -= 1
                if not countdown:
                    assert tick is not None
                    tick()
                    countdown = TICK_INTERVAL
            step = steps[depth]
            new_ops = step.new_ops
            if entering:
                group = step.group
                if group is None:
                    rows = step.bucket
                else:
                    key = 0
                    for op in step.key_ops:
                        key = (key << ID_BITS) | (binding[op] if op >= 0 else -1 - op)
                    rows = group.get(key, ())
                if new_ops:
                    iterators[depth] = iter(rows)
                else:
                    iterators[depth] = rows
                    consumed[depth] = False
                entering = False
            if not new_ops:
                # Filter step: one membership probe, nothing to enumerate.
                rows = iterators[depth]
                if consumed[depth] or not rows:
                    depth -= 1
                    if depth >= 0:
                        for slot in trail[depth]:
                            binding[slot] = -1
                    continue
                consumed[depth] = True
                candidates += 1
                if depth == last:
                    run.solutions += 1
                    yield binding
                    continue
                trail[depth] = no_slots
                depth += 1
                entering = True
                continue
            descended = False
            for row in iterators[depth]:  # type: ignore[union-attr]
                candidates += 1
                newly: list[int] = []
                ok = True
                for position, slot in new_ops:
                    value = row[position]
                    bound = binding[slot]
                    if bound < 0:
                        binding[slot] = value
                        newly.append(slot)
                    elif bound != value:
                        ok = False
                        break
                if not ok:
                    for slot in newly:
                        binding[slot] = -1
                    continue
                if depth == last:
                    run.solutions += 1
                    yield binding
                    for slot in newly:
                        binding[slot] = -1
                    continue
                trail[depth] = newly
                depth += 1
                entering = True
                descended = True
                break
            if not descended:
                depth -= 1
                if depth >= 0:
                    for slot in trail[depth]:
                        binding[slot] = -1
    finally:
        run.candidates += candidates


def _prepare(
    plan: InternedPlan,
    dictionary: TermDictionary,
    fixed: Mapping[Variable, Term] | None,
) -> tuple[list[int], dict[Variable, Term]]:
    """Initial slot bindings plus the fixed entries that have no slot.

    Fixed bindings for variables outside the plan's slot space (neither
    source nor compiled-fixed — the reference semantics carry them
    through) are returned separately so ``iterate`` can include them in the
    yielded substitutions, matching the reference semantics.
    """
    fixed = fixed or {}
    binding = [-1] * len(plan.slot_variables)
    intern = dictionary.intern
    fixed_slots = plan.fixed_slots
    if len(fixed) == len(fixed_slots):
        # Fast path: bind exactly the compiled fixed variables.  Equal size
        # plus every compiled variable present means the key sets coincide,
        # so no unplanned or missing binding is possible.
        try:
            for variable, slot in fixed_slots:
                binding[slot] = intern(fixed[variable])
            return binding, {}
        except KeyError:
            binding = [-1] * len(plan.slot_variables)
    # Slow path: extra bindings for non-source variables ride along in the
    # substitutions, genuinely illegal shapes raise.
    plan.check_fixed(fixed)
    extra: dict[Variable, Term] = {}
    slot_of = plan.slot_of
    for variable, term in fixed.items():
        slot = slot_of.get(variable)
        if slot is None:
            extra[variable] = term
        else:
            binding[slot] = intern(term)
    return binding, extra


def interned_iterate(
    plan: InternedPlan,
    dictionary: TermDictionary,
    fixed: Mapping[Variable, Term] | None = None,
    stats: ExecutionStats | None = None,
) -> Iterator[Substitution]:
    """Enumerate every homomorphism as a :class:`Substitution`."""
    binding, extra = _prepare(plan, dictionary, fixed)
    run = _Run()
    slot_variables = plan.slot_variables
    self_ids = plan.self_ids
    terms = dictionary.terms
    try:
        for solution in _solutions(plan, binding, run):
            mapping = dict(extra)
            # Unbound (-1) and identity (x -> x) slots are both dropped: the
            # former never happens once all steps ran, but fixed-only slots
            # of step-free plans stay at -1 unless pre-bound.
            for variable, self_id, image in zip(slot_variables, self_ids, solution):
                if image >= 0 and image != self_id:
                    mapping[variable] = terms[image]
            yield Substitution._trusted(mapping)
    finally:
        if stats is not None:
            stats.candidates_tried += run.candidates
            stats.solutions_found += run.solutions
            stats.executions += 1


def interned_count(
    plan: InternedPlan,
    dictionary: TermDictionary,
    fixed: Mapping[Variable, Term] | None = None,
    stats: ExecutionStats | None = None,
) -> int:
    """Count homomorphisms without materialising substitutions."""
    binding, _ = _prepare(plan, dictionary, fixed)
    run = _Run()
    for _ in _solutions(plan, binding, run):
        pass
    if stats is not None:
        stats.candidates_tried += run.candidates
        stats.solutions_found += run.solutions
        stats.executions += 1
    return run.solutions


def interned_exists(
    plan: InternedPlan,
    dictionary: TermDictionary,
    fixed: Mapping[Variable, Term] | None = None,
    stats: ExecutionStats | None = None,
) -> bool:
    """``True`` as soon as one homomorphism is found."""
    binding, _ = _prepare(plan, dictionary, fixed)
    run = _Run()
    found = next(_solutions(plan, binding, run), None) is not None
    if stats is not None:
        stats.candidates_tried += run.candidates
        stats.solutions_found += run.solutions
        stats.executions += 1
    return found
