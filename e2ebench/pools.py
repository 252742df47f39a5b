"""Request pools, seeded request streams and stream digests of the three workloads.

Every workload sends requests from a fixed *pool* of containment pairs.
The pools are pure functions of the constants below and of
``repro.workloads.scale``; ``reference.json`` records an independently
computed verdict for every pool pair, keyed by :func:`pair_key`.  A run's
``--seed`` orders the stream (and renames wide's stars apart); it does not
choose which pairs run, so every seed does the same work and is covered by
the committed reference.

* ``mixed``: the ``scale.mixed_pairs`` blend (random acyclic, star, chain)
  at five acyclic sizes, no pair drawn twice across the whole pool.  A pass
  sends the whole pool: the decision cost has a long tail, and a pass of a
  seeded half of the pool moved throughput and p90 by 20% from seed to seed.
* ``wide``: contained star pairs whose containing query has five
  existential rays (``rays ** extra`` containment mappings).  A pass holds
  a fixed number of copies of every star class, each copy with its
  variables renamed apart, so no two requests share an atom set.
* ``warm``: a universe of ``WARM_UNIVERSE`` default-size blend pairs, a
  Zipf-distributed stream of ``WARM_STREAM`` requests over it, and the
  pre-fill set an earlier session stored before a restart.  The sizes are
  those of the warm prototype the benchmark was specified from: a 20k
  stream over a 1k universe, half of it pre-filled.  Its store saw 172
  hits, 464 misses and 464 stores (plan and result entries together).
  The pre-fill is the less popular half of the universe: a random or a
  popular half gives more hits than misses.  ``WARM_ZIPF`` is fitted so
  that the store sees as many lookups as the prototype's (636): at 1.75
  the stream touches 342 distinct pairs and the store sees 125 hits, 503
  misses and 503 stores.  No public measurement of this library's traffic
  exists, so the skew stays a fitted choice.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import random
from dataclasses import dataclass

from repro.queries.cq import ConjunctiveQuery
from repro.relational.terms import Variable
from repro.session.requests import ContainmentRequest
from repro.workloads.scale import mixed_pairs, wide_star_pair

#: Acyclic (atoms, variables) sizes of the mixed pool, with the number of
#: blend draws made at each size.  Star and chain pairs repeat across
#: sizes, so after de-duplication the later sizes hold fewer of them.  The
#: pool is small enough for a pass to take under a second, so each request
#: repeats about twenty times in a run: against a pool of twice the size,
#: run alternately with it, that halved the run-to-run spread of
#: throughput and p50.
MIXED_TIERS = ((4, 5, 150), (5, 5, 100), (6, 6, 75), (7, 6, 60), (8, 7, 50))
MIXED_POOL_SEED = 1100

#: Star classes ``(rays, extra_rays, containee_boost, containing_boost)`` of
#: the wide pool, with copies per pass: 243 and 1024 containment mappings,
#: about 18 and 70 ms a request on a 2.1 GHz Xeon.  Wide is where a
#: Fourier-Motzkin change must read "no change", so classes whose
#: Diophantine side is a large share of the request are left out: in a
#: traced stream, 4 x 4 stars spend about 9% of a request there and
#: (3, 5, 4, 2) 14%; the 3 x 5 class below spends 5.5% and the 4 x 5 class
#: 3.6%, so the pass as a whole stays near 4%.  Both are contained, so wide
#: runs no certificate code.  p50 (requests 51-52 of 102) falls inside the
#: 3 x 5 copies and p90 (requests 92-93) inside the 4 x 5 ones.  A pass
#: takes about 3.5 s, so each request repeats about five times in a 20-s run.
WIDE_CLASSES = {
    (3, 5, 2, 2): 70,
    (4, 5, 2, 2): 32,
}

WARM_POOL_SEED = 2200
WARM_UNIVERSE = 1000
WARM_STREAM = 20000
WARM_ZIPF = 1.75

Pair = tuple[ConjunctiveQuery, ConjunctiveQuery]


def pair_key(containee: ConjunctiveQuery, containing: ConjunctiveQuery) -> str:
    """The reference key of a pair: a digest of both rendered queries."""
    text = f"{containee}|{containing}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _distinct_blend(draws, seen: set) -> list[tuple[str, Pair]]:
    """Drop draws whose pair (multiplicities included) was drawn before."""
    kept = []
    for origin, (containee, containing) in draws:
        key = pair_key(containee, containing)
        if key not in seen:
            seen.add(key)
            kept.append((origin, (containee, containing)))
    return kept


@functools.cache
def mixed_pool() -> dict[str, tuple[Pair, ...]]:
    """The mixed pool by stratum: one per acyclic size, plus ``star`` and ``chain``."""
    strata: dict[str, list[Pair]] = {}
    seen: set = set()
    for index, (atoms, variables, count) in enumerate(MIXED_TIERS):
        draws = mixed_pairs(
            count,
            seed=MIXED_POOL_SEED + index,
            acyclic_atoms=atoms,
            acyclic_variables=variables,
        )
        for origin, pair in _distinct_blend(draws, seen):
            family = origin.split("[", 1)[0]
            stratum = f"acyclic-{atoms}x{variables}" if family == "acyclic" else family
            strata.setdefault(stratum, []).append(pair)
    return {stratum: tuple(pairs) for stratum, pairs in strata.items()}


@functools.cache
def warm_pool() -> tuple[Pair, ...]:
    """The default-size blend pairs of the warm universe."""
    draws = mixed_pairs(2 * WARM_UNIVERSE, seed=WARM_POOL_SEED)
    return tuple(pair for _, pair in _distinct_blend(draws, set()))[:WARM_UNIVERSE]


def wide_representatives() -> dict[tuple[int, int, int, int], Pair]:
    """One un-renamed star pair per wide class (the reference is kept per class)."""
    return {shape: wide_star_pair(*shape) for shape in WIDE_CLASSES}


def _renamed(query: ConjunctiveQuery, tag: str) -> ConjunctiveQuery:
    renaming = {
        variable: Variable(f"{variable.name}_{tag}")
        for variable in sorted(
            {v for atom in query.body_atoms() for v in atom.variables()},
            key=lambda v: v.name,
        )
    }
    return query.rename_variables(renaming)


@dataclass(frozen=True)
class Item:
    """One request of a pass, with the reference key its verdict is checked by."""

    key: str
    request: ContainmentRequest


@dataclass(frozen=True)
class Workload:
    """What one run of a workload sends.

    ``items`` is one pass: the request list a fresh ``Session`` answers in
    order.  ``prefill`` (warm only) lists the items an earlier session
    stored before the restart.  ``memoize`` is the ``Session`` setting.
    """

    name: str
    items: tuple[Item, ...]
    memoize: bool
    prefill: tuple[Item, ...] = ()

    def digest(self) -> str:
        """A digest of the request stream (keys in order), for the report."""
        return _digest_keys(item.key for item in self.items)

    def prefill_digest(self) -> str:
        return _digest_keys(item.key for item in self.prefill)


def _digest_keys(keys) -> str:
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]


def _item(pair: Pair) -> Item:
    containee, containing = pair
    return Item(pair_key(containee, containing), ContainmentRequest(containee, containing))


def _zipf_sampler(rng: random.Random, size: int, exponent: float):
    weights = itertools.accumulate(1.0 / (rank**exponent) for rank in range(1, size + 1))
    cumulative = list(weights)
    total = cumulative[-1]

    def draw() -> int:
        return min(bisect.bisect_left(cumulative, rng.random() * total), size - 1)

    return draw


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload *name* for *seed*; *tiny* shrinks it for the smoke test."""
    rng = random.Random(f"e2ebench:{name}:{seed}")
    if name == "mixed":
        items = []
        for pairs in mixed_pool().values():
            items.extend(map(_item, pairs[:2] if tiny else pairs))
        rng.shuffle(items)
        return Workload(name, tuple(items), memoize=False)
    if name == "wide":
        items = []
        for index, (shape, copies) in enumerate(WIDE_CLASSES.items()):
            if tiny and shape[:2] != (3, 5):
                continue
            containee, containing = wide_star_pair(*shape)
            key = pair_key(containee, containing)
            for copy in range(1 if tiny else copies):
                tag = f"s{seed}c{index}k{copy}"
                request = ContainmentRequest(_renamed(containee, tag), _renamed(containing, tag))
                items.append(Item(key, request))
        rng.shuffle(items)
        return Workload(name, tuple(items), memoize=False)
    if name == "warm":
        universe_size = 40 if tiny else WARM_UNIVERSE
        stream_size = 400 if tiny else WARM_STREAM
        universe = [_item(pair) for pair in warm_pool()[:universe_size]]
        # The draws are fixed; the seed only orders the stream.  Which tail
        # pairs a seeded draw touches (and so runs the pipeline on) moved
        # throughput by 10% from seed to seed.
        draw = _zipf_sampler(random.Random(f"e2ebench:warm:{WARM_POOL_SEED}"), universe_size, WARM_ZIPF)
        stream = [universe[draw()] for _ in range(stream_size)]
        rng.shuffle(stream)
        return Workload(
            name,
            tuple(stream),
            memoize=True,
            prefill=tuple(universe[universe_size // 2 :]),
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mixed", "wide", "warm")
