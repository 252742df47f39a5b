"""The interned backend: integer-only plans, cost-ordered, over columnar data.

This is the production engine backend (``naive`` is the reference).  It
answers the same three questions — ``iterate`` / ``count`` / ``exists`` —
but its compiled artefacts never touch a :class:`~repro.relational.terms.Term`
inside the inner loop:

* the target is interned once into an :class:`~repro.engine.interning.InternedTarget`
  (columnar ``(relation, arity)`` buckets of tuple-of-int rows, packed-key
  signature group indexes);
* every plan step is compiled down to integer column positions: constants
  become term ids, variables become dense *slot* numbers into a flat binding
  list, and candidate lookup keys are packed integers;
* join steps are **cost-ordered** by the selectivity of the target's
  built signature indexes (rows per distinct key: the average number of
  candidates a probe returns), falling back to a static fail-first estimate
  for signatures whose index is not built yet.  The order is a function of
  the target's state alone.

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
from typing import Iterable, Iterator, Mapping

from repro.engine.interning import ID_BITS, InternedTarget, TermDictionary
from repro.faults.runtime import TICK_INTERVAL, tick_handle
from repro.exceptions import ReproError
from repro.relational.atoms import Atom
from repro.relational.substitutions import Substitution
from repro.relational.terms import Term, Variable

__all__ = [
    "ExecutionStats",
    "InternedPlan",
    "InternedStep",
    "atom_signature",
    "compile_interned_plan",
    "compile_step",
    "interned_count",
    "interned_exists",
    "interned_iterate",
    "step_cost",
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


def atom_signature(atom: Atom, bound: set[Variable]) -> tuple[int, ...]:
    """The bound-position signature of *atom* under the current bound set."""
    return tuple(
        position
        for position, term in enumerate(atom.terms)
        if not isinstance(term, Variable) or term in bound
    )


def step_cost(
    target: InternedTarget,
    atom: Atom,
    bound: set[Variable],
) -> tuple[float, int]:
    """Greedy scheduling cost of matching *atom* next.

    The primary component is the candidates-per-probe estimate of the
    atom's bound-position signature (see
    :meth:`~repro.engine.interning.InternedTarget.cost_estimate`); ties
    prefer more determined positions.  A plan's order is therefore a
    deterministic function of the target's built-index state, never of how
    often earlier executions probed it.
    """
    determined = atom_signature(atom, bound)
    cost = target.cost_estimate(atom.relation, atom.arity, determined)
    return (cost, -len(determined))


def compile_step(
    dictionary: TermDictionary,
    target: InternedTarget,
    slot_of: Mapping[Variable, int],
    atom: Atom,
    bound: set[Variable],
) -> InternedStep:
    """Compile one atom into an :class:`InternedStep` under *bound*."""
    key_ops: list[int] = []
    new_ops: list[tuple[int, int]] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Variable):
            if term in bound:
                key_ops.append(slot_of[term])
            else:
                new_ops.append((position, slot_of[term]))
        else:
            # Constant ids ride in the same op stream, encoded below the
            # slot range as ``-1 - id`` so the executor needs one branch.
            key_ops.append(-1 - dictionary.intern(term))
    determined = atom_signature(atom, bound)
    if determined:
        group = target.group_index(atom.relation, atom.arity, determined)
        bucket: tuple[tuple[int, ...], ...] = ()
    else:
        group = None
        bucket = target.rows(atom.relation, atom.arity)
    return InternedStep(atom, group, bucket, tuple(key_ops), tuple(new_ops))


def compile_interned_plan(
    dictionary: TermDictionary,
    target: InternedTarget,
    source_atoms: Iterable[Atom],
    fixed_variables: frozenset[Variable],
) -> InternedPlan:
    """Compile a cost-ordered integer plan against an interned target.

    The join order is greedy fail-first (:func:`step_cost`), and the per-atom
    cost is the selectivity of the atom's bound-position signature whenever
    the target has already built that signature index: ``len(bucket) /
    groups`` is exactly the average number of candidates a probe returns.
    Signatures whose index is not built yet fall back to the static
    ``bucket / 4^determined`` guess.  Ties prefer more determined positions,
    then the original atom order — deterministic for a fixed target state.
    """
    source = tuple(dict.fromkeys(source_atoms))
    source_variables: set[Variable] = set()
    for atom in source:
        source_variables.update(atom.variables())

    slot_variables = tuple(sorted(source_variables | fixed_variables, key=lambda v: v.name))
    slot_of = {variable: slot for slot, variable in enumerate(slot_variables)}
    self_ids = tuple(dictionary.intern(variable) for variable in slot_variables)

    # Greedy fail-first: schedule the cheapest atom under the running bound
    # set (``min`` keeps the first of equal costs, so ties follow the source
    # order and compilation is deterministic).
    bound: set[Variable] = set(fixed_variables)
    steps: list[InternedStep] = []
    remaining = list(source)
    while remaining:
        atom = remaining.pop(
            min(range(len(remaining)), key=lambda i: step_cost(target, remaining[i], bound))
        )
        steps.append(compile_step(dictionary, target, slot_of, atom, bound))
        bound.update(atom.variables())

    # Hoist the pure preconditions: filter steps (no fresh slots) whose keys
    # read only constants and pre-fixed slots hold independently of every
    # search choice, so they run once, up front, in a flat scan.
    fixed_slot_numbers = {slot_of[variable] for variable in fixed_variables}
    static_steps = tuple(
        step
        for step in steps
        if not step.new_ops
        and all(op < 0 or op in fixed_slot_numbers for op in step.key_ops)
    )
    static_set = {id(step) for step in static_steps}
    dynamic_steps = tuple(step for step in steps if id(step) not in static_set)

    return InternedPlan(
        steps=dynamic_steps,
        static_steps=static_steps,
        slot_variables=slot_variables,
        slot_of=slot_of,
        self_ids=self_ids,
        fixed_variables=fixed_variables,
        source_variables=frozenset(source_variables),
        fixed_slots=tuple(
            (variable, slot)
            for slot, variable in enumerate(slot_variables)
            if variable in fixed_variables
        ),
    )


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
