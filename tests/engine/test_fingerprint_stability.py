"""Cross-process stability of the persistent digest (satellite of the warm-start work).

Python randomizes string hashes per process, so frozenset/dict iteration
order — and therefore any serialization that walks containers naively —
differs between processes.  ``persistent_digest`` must not: the persistent
cache keys rows by it, and an unstable digest would turn every warm start
into a silent cold start (or, with a collision, serve the wrong row).

The regression test here round-trips real cache-key structures through
subprocesses pinned to *different* ``PYTHONHASHSEED`` values and asserts
digest equality with the parent.
"""

import subprocess
import sys

import pytest

from repro.engine.fingerprints import (
    UnpersistableKeyError,
    persistent_digest,
)
from repro.queries.parser import parse_cq
from repro.relational.atoms import Atom
from repro.relational.terms import CanonicalConstant, Constant, Variable
from repro.session.session import Limits

x, y = Variable("x"), Variable("y")
a, b = Constant("a"), Constant("b")


def sample_keys():
    """Representative persistent-tier key structures."""
    query = parse_cq("q(x, y) <- R^2(x, y), P(y, x)")
    plan_key = (
        frozenset({Atom("R", (x, y)), Atom("P", (y, x))}),
        frozenset({Atom("R", (a, b)), Atom("R", (b, a)), Atom("P", (a, a))}),
        frozenset({x}),
    )
    result_key = (
        "session",
        (
            "decide",
            frozenset({Atom("R", (a, b))}),
            frozenset({Atom("R", (x, y))}),
            frozenset({(x, a)}),
            "interned",
        ),
    )
    return {
        "plan": plan_key,
        "result": result_key,
        "query": query,
        "limits": Limits(bounded_guess_max_candidates=123),
        "mixed": (None, True, False, 42, -3.5, "text", b"bytes", [1, (2, 3)], {a: {x, y}}),
        "canonical": CanonicalConstant("x0"),
    }


_SUBPROCESS_SCRIPT = """
import sys
sys.path.insert(0, {src_path!r})
from tests.engine.test_fingerprint_stability import sample_keys
from repro.engine.fingerprints import persistent_digest
for name, key in sorted(sample_keys().items()):
    print(name, persistent_digest(key))
"""


def _digests_in_subprocess(hash_seed: str) -> dict[str, str]:
    import os

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (os.path.abspath("src"), os.path.abspath("."), env.get("PYTHONPATH")) if path
    )
    output = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT.format(src_path=os.path.abspath("src"))],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return dict(line.split(" ", 1) for line in output.splitlines())


class TestCrossProcessStability:
    def test_digests_survive_hash_randomization(self):
        local = {name: persistent_digest(key) for name, key in sample_keys().items()}
        for seed in ("1", "31337"):
            remote = _digests_in_subprocess(seed)
            assert remote == local, f"digest drift under PYTHONHASHSEED={seed}"

    def test_two_differently_seeded_subprocesses_agree(self):
        assert _digests_in_subprocess("7") == _digests_in_subprocess("4242")


class TestDigestSemantics:
    def test_set_digest_ignores_construction_order(self):
        forward = frozenset([Atom("R", (a, b)), Atom("R", (b, a)), Atom("P", (x, y))])
        backward = frozenset([Atom("P", (x, y)), Atom("R", (b, a)), Atom("R", (a, b))])
        assert persistent_digest(forward) == persistent_digest(backward)

    def test_dict_digest_ignores_insertion_order(self):
        assert persistent_digest({"p": 1, "q": 2}) == persistent_digest({"q": 2, "p": 1})

    def test_distinct_structures_get_distinct_digests(self):
        assert persistent_digest((1, 2)) != persistent_digest((2, 1))
        assert persistent_digest("1") != persistent_digest(1)
        assert persistent_digest(Variable("v")) != persistent_digest(Constant("v"))
        assert persistent_digest(frozenset({1, 2})) != persistent_digest((1, 2))

    def test_query_digest_distinguishes_renamed_copies(self):
        # Structural __eq__ ignores names, but memoised decision results
        # embed their queries (explain() prints the names), so the
        # persistent key must keep renamed copies apart.
        query = parse_cq("q(x) <- R(x, x)")
        assert persistent_digest(query) != persistent_digest(query.with_name("copy"))

    def test_unpersistable_components_raise(self):
        with pytest.raises(UnpersistableKeyError):
            persistent_digest(lambda: None)
        with pytest.raises(UnpersistableKeyError):
            persistent_digest((1, 2, object()))
