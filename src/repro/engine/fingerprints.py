"""Fingerprints used as engine-cache keys.

Cache keys must be cheap to compute, hashable, and collision-free for the
value objects the engine works with.  :func:`atoms_fingerprint` is an
order-insensitive key for a collection of atoms (sources and targets are
semantically sets once deduplicated, so two call sites passing the same
atoms in different orders share cache entries); it keys interned targets
and the plans bound to them.

The in-memory keys are hashable value objects: equal across processes,
but *serialized* differently per process (frozenset iteration order
follows the randomized string hash).  The persistent cache tier
(:mod:`repro.engine.persist`) therefore keys its rows — session decision
memos — by :func:`persistent_digest`: a SHA-256 over an explicitly
sorted, explicitly serialized rendering of the key structure that never
consults ``hash()`` or container iteration order, so the digest of a key
is identical in every process regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterable

from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.terms import CanonicalConstant, Constant, Variable

__all__ = [
    "UnpersistableKeyError",
    "atoms_fingerprint",
    "persistent_digest",
]


def atoms_fingerprint(atoms: Iterable[Atom]) -> frozenset[Atom]:
    """An order-insensitive, hashable key for a collection of atoms."""
    return frozenset(atoms)


# --------------------------------------------------------------------- #
# Cross-process-stable digests (the persistent cache tier's key space)
# --------------------------------------------------------------------- #
class UnpersistableKeyError(TypeError):
    """A cache key contains a component with no canonical serialization.

    The persistent tier treats such keys as in-memory-only (it skips the
    store rather than persisting under an unstable key); tests use the
    exception directly.
    """


def _encode_canonical(obj: object) -> bytes:
    """A canonical byte rendering of a (nested) cache-key structure.

    Every container is explicitly ordered before serialization — sets and
    dicts are sorted by the encodings of their elements, never iterated in
    hash order — and every leaf is rendered from its named fields, never
    from ``hash()``.  Two processes with different ``PYTHONHASHSEED`` (or
    different interpreter builds) therefore always produce identical
    encodings for equal keys, which is what makes cross-process persistent
    lookups hit instead of silently missing (or, with an unlucky seed
    collision, matching the wrong row).
    """
    if obj is None:
        return b"N"
    if obj is True:
        return b"T"
    if obj is False:
        return b"F"
    kind = type(obj)
    if kind is int:
        return b"i" + repr(obj).encode()
    if kind is float:
        return b"f" + repr(obj).encode()
    if kind is str:
        encoded = obj.encode("utf-8")
        return b"s" + repr(len(encoded)).encode() + b":" + encoded
    if kind is bytes:
        return b"b" + repr(len(obj)).encode() + b":" + obj
    if kind is Variable:
        return b"V(" + _encode_canonical(obj.name) + b")"
    if kind is Constant:
        return b"C(" + _encode_canonical(obj.value) + b")"
    if kind is CanonicalConstant:
        return b"K(" + _encode_canonical(obj.variable_name) + b")"
    if kind is Atom:
        return (
            b"A("
            + _encode_canonical(obj.relation)
            + b","
            + b",".join(_encode_canonical(term) for term in obj.terms)
            + b")"
        )
    if kind is ConjunctiveQuery:
        # Name + head variable names + body sorted by encoded atom: the
        # exact information query __eq__ compares (plus the display name,
        # which memoised results embed through their certificates).
        body = sorted(
            (_encode_canonical(atom), multiplicity) for atom, multiplicity in obj.body.items()
        )
        return (
            b"Q("
            + _encode_canonical(obj.name)
            + b";"
            + b",".join(_encode_canonical(variable) for variable in obj.head)
            + b";"
            + b",".join(atom + b"*" + repr(mult).encode() for atom, mult in body)
            + b")"
        )
    if kind in (tuple, list):
        return b"t(" + b",".join(_encode_canonical(item) for item in obj) + b")"
    if kind in (frozenset, set):
        return b"S(" + b",".join(sorted(_encode_canonical(item) for item in obj)) + b")"
    if kind is dict:
        items = sorted(
            (_encode_canonical(key), _encode_canonical(value)) for key, value in obj.items()
        )
        return b"d(" + b",".join(key + b"=" + value for key, value in items) + b")"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # Frozen request/limits dataclasses: class name + named fields.
        parts = [
            _encode_canonical(field.name) + b"=" + _encode_canonical(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        ]
        return b"D(" + _encode_canonical(type(obj).__name__) + b";" + b",".join(parts) + b")"
    raise UnpersistableKeyError(
        f"no canonical serialization for cache-key component of type {type(obj).__name__}"
    )


def persistent_digest(obj: object) -> str:
    """The cross-process-stable SHA-256 hex digest of a cache-key structure.

    Raises :class:`UnpersistableKeyError` when *obj* contains a component
    without a canonical serialization (e.g. a compiled closure, or a
    process-local interning serial); callers treat such keys as
    in-memory-only.
    """
    return hashlib.sha256(_encode_canonical(obj)).hexdigest()
