"""Campaign output must not depend on the interpreter's hash seed.

Python randomizes string hashes per process, so set and dict-view
iteration order differs between processes.  The contract is that nothing
a user can compare across runs depends on that order: a fuzz campaign's
saved corpus and a chaos campaign's replay digest (which covers every
verdict and certificate digest) must be byte-identical under any
``PYTHONHASHSEED``.  ``test_fingerprint_stability.py`` pins the persistent
digest alone; this test pins whole campaigns end to end.
"""

import os
import subprocess
import sys

HASH_SEEDS = ("1", "31337")


def _repro_under_each_seed(args, cwd):
    """Run ``repro ARGS`` once per hash seed, concurrently; return each stdout."""
    runs = []
    for hash_seed in HASH_SEEDS:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (os.path.abspath("src"), env.get("PYTHONPATH")) if path
        )
        command = [arg.format(hash_seed=hash_seed) for arg in args]
        runs.append(
            subprocess.Popen(
                [sys.executable, "-m", "repro", *command],
                cwd=cwd,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    outputs = []
    for run in runs:
        stdout, stderr = run.communicate(timeout=120)
        assert run.returncode == 0, stdout + stderr
        outputs.append(stdout)
    return outputs


def _replay_digest(stdout):
    (line,) = [line for line in stdout.splitlines() if line.startswith("replay digest: ")]
    return line.removeprefix("replay digest: ")


def test_fuzz_corpus_and_chaos_digest_match_across_hash_seeds(tmp_path):
    fuzz = ["fuzz", "--cases", "15", "--seed", "3", "--jobs", "1", "--no-shrink"]
    _repro_under_each_seed([*fuzz, "--save-corpus", "corpus-{hash_seed}.json"], tmp_path)
    first, second = [(tmp_path / f"corpus-{seed}.json").read_bytes() for seed in HASH_SEEDS]
    assert first == second

    chaos = ["chaos", "--cases", "30", "--seed", "5", "--schedule", "mixed", "--jobs", "1"]
    first, second = map(_replay_digest, _repro_under_each_seed(chaos, tmp_path))
    assert first == second
