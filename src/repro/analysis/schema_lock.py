"""Persist-schema drift detection for :class:`repro.engine.persist.PersistentCache`.

The persistent cache pickles decision memos (``BagContainmentResult`` /
``SetContainmentResult`` and their certificate payloads) and scalar
``count``/``exists`` memos to disk, keyed in
part by ``SCHEMA_VERSION``.  The contract since PR 7 is: *change the layout
of anything that gets pickled → bump ``SCHEMA_VERSION``* so stale rows are
never unpickled into mismatched shapes.  That contract used to live in the
README; this module makes it machine-checked.

The mechanism is a structural fingerprint.  Starting from the root types
that actually enter the store, we transitively collect every ``repro``
class reachable through dataclass field annotations and record, per type:

* dataclasses — the ordered ``(field name, rendered type)`` list;
* ``__slots__`` classes — the slot names plus whether the class customises
  pickling via ``__getstate__`` / ``__setstate__``;
* anything else — the sorted class-level annotation names.

The rendered layouts are serialised to canonical JSON and hashed; the
``(SCHEMA_VERSION, digest)`` pair is committed as ``persist-schema.lock``
at the repository root.  :func:`check_lock` then distinguishes the three
interesting states:

* layouts unchanged → OK;
* layouts changed, same ``SCHEMA_VERSION`` → **drift without a bump**, the
  failure this module exists to catch, reported with a per-type diff;
* ``SCHEMA_VERSION`` bumped → the lock is stale and must be regenerated
  with ``repro analyze --write-schema-lock`` (a deliberate second commit
  step, so the bump and the new fingerprint land together in review).

Fingerprints are *structural*, not semantic: renaming a field the pickle
protocol never sees (a property, a method) does not trip the check, and
type renderings avoid ``repr`` artefacts so the digest is stable across
interpreter versions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from importlib import import_module
from pathlib import Path
from typing import Any, Iterator, Union

__all__ = [
    "ROOT_TYPES",
    "SchemaFingerprint",
    "check_lock",
    "current_fingerprint",
    "diff_layouts",
    "write_lock",
]

#: ``(module, class name)`` of every type whose instances are pickled into
#: the persistent store: the results layer stores the session decision memos
#: and their certificate payloads (scalar memos are plain ints and bools).
ROOT_TYPES: tuple[tuple[str, str], ...] = (
    ("repro.core.decision", "BagContainmentResult"),
    ("repro.containment.set_containment", "SetContainmentResult"),
    ("repro.core.encoding", "MpiEncoding"),
    ("repro.diophantine.solver", "MpiDecision"),
    ("repro.core.certificates", "ContainmentCounterexample"),
)

Layout = dict[str, Any]


@dataclasses.dataclass(frozen=True)
class SchemaFingerprint:
    """The committed identity of the persisted-object layouts."""

    schema_version: int
    digest: str
    types: dict[str, Layout]

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": self.schema_version,
                "digest": self.digest,
                "types": self.types,
            },
            indent=2,
            sort_keys=True,
        )


def _qualified(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _is_repro_class(obj: Any) -> bool:
    return isinstance(obj, type) and obj.__module__.startswith("repro.")


def _render(hint: Any, referenced: set[type]) -> str:
    """Render a type annotation deterministically, collecting repro classes."""
    if hint is None or hint is type(None):
        return "None"
    if isinstance(hint, type):
        if _is_repro_class(hint) or dataclasses.is_dataclass(hint):
            # First-party classes and any dataclass (wherever it lives)
            # are part of the pickled layout — fingerprint them too.
            referenced.add(hint)
            return _qualified(hint)
        return hint.__qualname__
    origin = typing.get_origin(hint)
    if origin is not None:
        arguments = typing.get_args(hint)
        if origin is Union:
            parts = sorted(_render(argument, referenced) for argument in arguments)
            return " | ".join(parts)
        origin_name = _render(origin, referenced)
        if not arguments:
            return origin_name
        rendered = ", ".join(
            "..." if argument is Ellipsis else _render(argument, referenced)
            for argument in arguments
        )
        return f"{origin_name}[{rendered}]"
    return str(hint)


def _layout_of(cls: type, referenced: set[type]) -> Layout:
    if dataclasses.is_dataclass(cls):
        try:
            hints = typing.get_type_hints(cls)
        except Exception:  # pragma: no cover - unresolvable forward refs
            hints = {field.name: field.type for field in dataclasses.fields(cls)}
        fields = [
            [field.name, _render(hints.get(field.name, field.type), referenced)]
            for field in dataclasses.fields(cls)
        ]
        return {"kind": "dataclass", "fields": fields}
    slots = getattr(cls, "__slots__", None)
    if slots is not None:
        slot_names = [slots] if isinstance(slots, str) else sorted(slots)
        return {
            "kind": "slots",
            "slots": slot_names,
            "custom_pickle": [
                name
                for name in ("__getstate__", "__setstate__", "__reduce__")
                if name in cls.__dict__
            ],
        }
    annotations = getattr(cls, "__annotations__", {})
    return {
        "kind": "class",
        "annotations": sorted(annotations),
        "custom_pickle": [
            name
            for name in ("__getstate__", "__setstate__", "__reduce__")
            if name in cls.__dict__
        ],
    }


def _collect_layouts() -> dict[str, Layout]:
    pending: list[type] = []
    for module_name, class_name in ROOT_TYPES:
        module = import_module(module_name)
        pending.append(getattr(module, class_name))
    layouts: dict[str, Layout] = {}
    seen: set[type] = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        referenced: set[type] = set()
        layouts[_qualified(cls)] = _layout_of(cls, referenced)
        if dataclasses.is_dataclass(cls):
            # Non-dataclass fields reached only via __slots__ don't carry
            # annotations to chase, but their layout is still recorded.
            for field in dataclasses.fields(cls):
                if _is_repro_class(field.type):
                    referenced.add(field.type)
        pending.extend(sorted(referenced - seen, key=_qualified))
    return layouts


def current_fingerprint() -> SchemaFingerprint:
    """Fingerprint the persisted-object layouts of the running code."""
    from repro.engine.persist import SCHEMA_VERSION

    layouts = _collect_layouts()
    digest = hashlib.sha256(
        json.dumps(layouts, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return SchemaFingerprint(schema_version=SCHEMA_VERSION, digest=digest, types=layouts)


def write_lock(path: str | Path) -> SchemaFingerprint:
    """Write the current fingerprint to *path* and return it."""
    fingerprint = current_fingerprint()
    Path(path).write_text(fingerprint.to_json() + "\n", encoding="utf-8")
    return fingerprint


def _load_lock(path: Path) -> SchemaFingerprint | None:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return SchemaFingerprint(
            schema_version=int(payload["schema_version"]),
            digest=str(payload["digest"]),
            types={str(name): dict(layout) for name, layout in payload["types"].items()},
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def diff_layouts(old: dict[str, Layout], new: dict[str, Layout]) -> Iterator[str]:
    """Human-readable structural differences, one line per change."""
    for name in sorted(old.keys() - new.keys()):
        yield f"{name}: no longer reachable from the persisted roots"
    for name in sorted(new.keys() - old.keys()):
        yield f"{name}: newly reachable from the persisted roots"
    for name in sorted(old.keys() & new.keys()):
        before, after = old[name], new[name]
        if before == after:
            continue
        if before.get("kind") != after.get("kind"):
            yield f"{name}: kind changed {before.get('kind')} -> {after.get('kind')}"
            continue
        if before.get("kind") == "dataclass":
            old_fields = dict(map(tuple, before.get("fields", [])))
            new_fields = dict(map(tuple, after.get("fields", [])))
            for field_name in sorted(old_fields.keys() - new_fields.keys()):
                yield f"{name}: field {field_name} removed"
            for field_name in sorted(new_fields.keys() - old_fields.keys()):
                yield f"{name}: field {field_name} added"
            for field_name in sorted(old_fields.keys() & new_fields.keys()):
                if old_fields[field_name] != new_fields[field_name]:
                    yield (
                        f"{name}: field {field_name} retyped "
                        f"{old_fields[field_name]} -> {new_fields[field_name]}"
                    )
            old_order = [field_name for field_name, _ in before.get("fields", [])]
            new_order = [field_name for field_name, _ in after.get("fields", [])]
            if old_order != new_order and set(old_order) == set(new_order):
                yield f"{name}: field order changed {old_order} -> {new_order}"
        else:
            yield f"{name}: layout changed {before} -> {after}"


def check_lock(path: str | Path) -> list[str]:
    """Check the committed lock against the running code.

    Returns a list of problems; empty means the lock matches.
    """
    lock_path = Path(path)
    current = current_fingerprint()
    if not lock_path.exists():
        return [
            f"schema lock {lock_path} is missing; generate it with "
            "`repro analyze --write-schema-lock`"
        ]
    lock = _load_lock(lock_path)
    if lock is None:
        return [
            f"schema lock {lock_path} is unreadable; regenerate it with "
            "`repro analyze --write-schema-lock`"
        ]
    if lock.digest == current.digest and lock.schema_version == current.schema_version:
        return []
    if lock.schema_version != current.schema_version:
        return [
            "persist-schema.lock is stale: SCHEMA_VERSION is now "
            f"{current.schema_version} (lock has {lock.schema_version}); "
            "refresh it with `repro analyze --write-schema-lock` and commit "
            "the result alongside the bump"
        ]
    problems = [
        "persisted-object layout changed without a SCHEMA_VERSION bump "
        f"(still {current.schema_version}); bump repro.engine.persist."
        "SCHEMA_VERSION, then refresh the lock with "
        "`repro analyze --write-schema-lock`"
    ]
    problems.extend(diff_layouts(lock.types, current.types))
    return problems
