"""Static soundness verification of compiled plans.

The engine bottoms out in machine-built artifacts: integer-compiled,
cost-ordered :class:`~repro.engine.interned.InternedPlan` step programs.
Their correctness is exercised dynamically by the differential fuzz
harness; this module adds the complementary *static* guarantee — every
plan can be proven well-formed before a single row is probed.

:func:`verify_plan` checks a compiled :class:`InternedPlan` for

* **variable-binding safety** — every slot a key op or filter reads is
  bound before use, by the fixed contract or an earlier step's fresh ops;
* **signature/arity agreement** — each step's key/new op partition is
  exactly what its atom demands under the running bound set, so the
  compiled program answers the query body it claims to;
* **packed-key injectivity** — multi-position probe keys stay injective
  within the :class:`~repro.engine.interning.TermDictionary` bit budget
  (the bound is *computed* from the dictionary size and capacity, never
  assumed);
* **cost-order permutation validity** — the scheduled steps are a
  permutation of the deduplicated source atoms (reordering is the only
  freedom cost-based planning has).

It returns a list of :class:`Violation` records;
:mod:`repro.analysis.hooks` wraps it into a raising check that the engine
runs online behind ``Session(debug_verify_plans=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.engine.interned import InternedPlan, InternedStep
from repro.engine.interning import ID_BITS, TermDictionary
from repro.relational.atoms import Atom
from repro.relational.terms import Variable

__all__ = ["Violation", "verify_plan"]


@dataclass(frozen=True)
class Violation:
    """One soundness defect established by the verifier."""

    code: str
    subject: str
    message: str

    def describe(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


def _dedup_atoms(source_atoms) -> tuple[Atom, ...] | None:
    """Normalise a source-side argument to deduplicated atoms (or ``None``).

    Accepts an iterable of atoms or a query-like object exposing
    ``body_atoms()`` — so tests can pass the query the plan was compiled
    for directly.
    """
    if source_atoms is None:
        return None
    body = getattr(source_atoms, "body_atoms", None)
    if callable(body):
        source_atoms = body()
    return tuple(dict.fromkeys(source_atoms))


# --------------------------------------------------------------------------- #
# Plan IR verification
# --------------------------------------------------------------------------- #
def verify_plan(
    plan,
    source_atoms=None,
    fixed_variables: Iterable[Variable] | None = None,
    dictionary: TermDictionary | None = None,
) -> list[Violation]:
    """Statically verify a compiled plan IR; returns all violations found.

    *plan* must be an :class:`InternedPlan`.  *source_atoms* (an atom
    iterable or a query exposing ``body_atoms()``) and *fixed_variables*
    tighten the check to the triple the plan was compiled for;
    *dictionary* enables the id and packed-key-budget checks.
    """
    if not isinstance(plan, InternedPlan):
        return [Violation("unknown-plan", type(plan).__name__, "not an InternedPlan")]
    return _verify_interned_plan(plan, _dedup_atoms(source_atoms), fixed_variables, dictionary)


def _verify_interned_plan(
    plan: InternedPlan,
    source: tuple[Atom, ...] | None,
    fixed_variables: Iterable[Variable] | None,
    dictionary: TermDictionary | None,
) -> list[Violation]:
    """The integer IR: slot layout, op streams and the packed-key budget."""
    out: list[Violation] = []
    static_steps = plan.static_steps
    dynamic_steps = plan.steps

    # --- Slot layout: slot_of must invert slot_variables exactly. ----------
    slot_variables = plan.slot_variables
    if len(plan.slot_of) != len(slot_variables) or any(
        plan.slot_of.get(variable) != slot for slot, variable in enumerate(slot_variables)
    ):
        out.append(
            Violation("slot-layout", "plan", "slot_of is not the inverse of slot_variables")
        )
        return out
    if len(plan.self_ids) != len(slot_variables):
        out.append(Violation("slot-layout", "plan", "self_ids does not cover every slot"))
        return out
    if dictionary is not None:
        for slot, variable in enumerate(slot_variables):
            if dictionary.lookup(variable) != plan.self_ids[slot]:
                out.append(
                    Violation(
                        "slot-layout",
                        f"slot {slot}",
                        f"self id {plan.self_ids[slot]} is not the dictionary id of {variable}",
                    )
                )

    # --- Fixed contract. ----------------------------------------------------
    if fixed_variables is not None and frozenset(fixed_variables) != plan.fixed_variables:
        out.append(
            Violation(
                "fixed-mismatch",
                "plan",
                f"compiled for fixed set {sorted(map(str, plan.fixed_variables))}, "
                f"caller expects {sorted(map(str, frozenset(fixed_variables)))}",
            )
        )
    expected_fixed_slots = tuple(
        (variable, slot)
        for slot, variable in enumerate(slot_variables)
        if variable in plan.fixed_variables
    )
    if plan.fixed_slots != expected_fixed_slots:
        out.append(
            Violation("fixed-mismatch", "plan", "fixed_slots disagree with the fixed variables")
        )
    fixed_slot_numbers = {slot for _, slot in expected_fixed_slots}

    # --- Cost-order permutation validity. ------------------------------------
    scheduled = tuple(step.atom for step in static_steps) + tuple(
        step.atom for step in dynamic_steps
    )
    if len(set(scheduled)) != len(scheduled):
        out.append(Violation("order-permutation", "plan", "an atom is scheduled more than once"))
    if source is not None and (
        len(scheduled) != len(source) or set(scheduled) != set(source)
    ):
        out.append(
            Violation(
                "order-permutation",
                "plan",
                f"scheduled atoms {sorted(map(str, scheduled))} are not a permutation "
                f"of the source atoms {sorted(map(str, source))}",
            )
        )
    for atom in scheduled:
        for variable in atom.variables():
            if variable not in plan.slot_of:
                out.append(
                    Violation("slot-layout", str(atom), f"variable {variable} has no slot")
                )
                return out

    # --- Packed-key injectivity within the computed bit budget. --------------
    window = 1 << ID_BITS
    packs_keys = any(
        len(step.key_ops) >= 2 for step in (*static_steps, *dynamic_steps)
    )
    if dictionary is not None and packs_keys:
        if len(dictionary) > window:
            out.append(
                Violation(
                    "key-overflow",
                    "dictionary",
                    f"{len(dictionary)} interned ids exceed the {ID_BITS}-bit pack "
                    f"window ({window}); multi-position keys are no longer injective",
                )
            )
        elif dictionary.capacity > window:
            out.append(
                Violation(
                    "key-overflow",
                    "dictionary",
                    f"dictionary capacity {dictionary.capacity} exceeds the {ID_BITS}-bit "
                    f"pack window ({window}); the overflow guard fires too late to keep "
                    "multi-position keys injective",
                )
            )

    # --- Static filters: constants and fixed slots only, full signature. -----
    for number, step in enumerate(static_steps):
        subject = f"filter {number} ({step.atom})"
        if step.new_ops:
            out.append(Violation("static-binds", subject, "a static filter must bind no slots"))
        if len(step.key_ops) != step.atom.arity:
            out.append(
                Violation(
                    "arity-mismatch",
                    subject,
                    f"{len(step.key_ops)} key ops do not cover the arity-{step.atom.arity} atom",
                )
            )
        for op in step.key_ops:
            if op >= 0 and op not in fixed_slot_numbers:
                out.append(
                    Violation(
                        "unbound-read",
                        subject,
                        f"static key reads slot {op}, which no fixed binding covers",
                    )
                )
        _check_step_ops(step, set(plan.fixed_variables), plan, dictionary, subject, out)

    # --- Dynamic steps: binding-safe op streams in schedule order. -----------
    bound_variables: set[Variable] = set(plan.fixed_variables)
    bound_slots = set(fixed_slot_numbers)
    for number, step in enumerate(dynamic_steps):
        subject = f"step {number} ({step.atom})"
        if len(step.key_ops) + len(step.new_ops) != step.atom.arity:
            out.append(
                Violation(
                    "arity-mismatch",
                    subject,
                    f"{len(step.key_ops)} key ops + {len(step.new_ops)} fresh ops do not "
                    f"cover the arity-{step.atom.arity} atom",
                )
            )
            continue
        for op in step.key_ops:
            if op >= 0 and op not in bound_slots:
                out.append(
                    Violation(
                        "unbound-read",
                        subject,
                        f"key reads slot {op} before any earlier step binds it",
                    )
                )
        _check_step_ops(step, bound_variables, plan, dictionary, subject, out)
        bound_variables.update(step.atom.variables())
        bound_slots.update(slot for _, slot in step.new_ops)
        bound_slots.update(
            plan.slot_of[v] for v in step.atom.variables() if v in plan.slot_of
        )
    return out


def _check_step_ops(
    step: InternedStep,
    bound_variables: set[Variable],
    plan: InternedPlan,
    dictionary: TermDictionary | None,
    subject: str,
    out: list[Violation],
) -> None:
    """Recompute the expected op streams of *step* from its atom and compare.

    This is the signature-agreement core: under the bound set the schedule
    implies, each argument position must compile to exactly one key op
    (slot for a bound variable, ``-1 - id`` for a constant) or one fresh
    ``(position, slot)`` op — in position order, like the compiler emits.
    """
    expected_keys: list[int | None] = []  # None = constant with unknown id
    expected_new: list[tuple[int, int]] = []
    for position, term in enumerate(step.atom.terms):
        if isinstance(term, Variable):
            slot = plan.slot_of.get(term)
            if slot is None:
                return  # already reported as slot-layout
            if term in bound_variables:
                expected_keys.append(slot)
            else:
                expected_new.append((position, slot))
        elif dictionary is None:
            expected_keys.append(None)
        else:
            identifier = dictionary.lookup(term)
            if identifier is None:
                out.append(
                    Violation(
                        "constant-id",
                        subject,
                        f"constant {term!r} was never interned in the plan's dictionary",
                    )
                )
                return
            expected_keys.append(-1 - identifier)

    if tuple(expected_new) != tuple(step.new_ops):
        out.append(
            Violation(
                "signature-mismatch",
                subject,
                f"fresh ops {step.new_ops} should be {tuple(expected_new)} under the "
                "schedule's bound set",
            )
        )
    if len(expected_keys) != len(step.key_ops):
        out.append(
            Violation(
                "signature-mismatch",
                subject,
                f"{len(step.key_ops)} key ops where the atom demands {len(expected_keys)}",
            )
        )
        return
    for position, (expected, actual) in enumerate(zip(expected_keys, step.key_ops)):
        if expected is None:
            if actual >= 0:
                out.append(
                    Violation(
                        "signature-mismatch",
                        subject,
                        f"key op {position} reads slot {actual} where the atom holds a constant",
                    )
                )
        elif expected != actual:
            out.append(
                Violation(
                    "signature-mismatch",
                    subject,
                    f"key op {position} is {actual}, expected {expected}",
                )
            )
