"""Seeded-defect corpus for the fork/pickle-safety analyzers.

``bad_*`` functions each contain one ground-truth defect
(``fork-unpicklable`` or ``fork-shared-state``); ``clean_*`` functions
are nearby patterns the analyzers must stay silent on.
``test_forksafety.py`` asserts the finding set matches the ``bad_*``
names exactly.

Analyzed as source only — the worker-boundary names just need to match.
"""

from functools import partial

from repro.parallel import SessionSpec, parallel_batch

RESULTS = {}
COUNTER = 0


def module_worker(job):
    return job


# --------------------------------------------------------------------------- #
# Known-bad: unpicklable values crossing the boundary
# --------------------------------------------------------------------------- #
def bad_lambda_to_pool(jobs):
    return parallel_batch(lambda job: job, jobs)


def bad_nested_def_to_pool(jobs):
    def worker(job):
        return job

    return parallel_batch(worker, jobs)


def bad_open_handle_keyword(jobs, path):
    log = open(path)
    return parallel_batch(jobs, initializer=module_worker, log=log)


def bad_local_class_spec(backend):
    class LocalLimits:
        rows = 10

    return SessionSpec(backend=backend, limits=LocalLimits())


# --------------------------------------------------------------------------- #
# Known-bad: worker-reachable writes to module state
# --------------------------------------------------------------------------- #
def bad_shared_global_write():
    global COUNTER
    COUNTER = COUNTER + 1


def bad_shared_container_write(job):
    RESULTS[job.key] = job.value
    return job


def run_bad_workers(jobs):
    parallel_batch(bad_shared_container_write, jobs)
    return parallel_batch(jobs, initializer=bad_shared_global_write)


# --------------------------------------------------------------------------- #
# Known-clean
# --------------------------------------------------------------------------- #
def clean_module_fn_to_pool(jobs):
    return parallel_batch(module_worker, jobs)


def clean_rebound_before_boundary(jobs):
    fn = lambda job: job  # noqa: E731 - rebinding is the point
    fn = module_worker
    return parallel_batch(fn, jobs)


def clean_handle_not_passed(jobs, path):
    with open(path) as handle:
        manifest = handle.read()
    return parallel_batch(module_worker, jobs), manifest


def clean_partial_of_module_fn(jobs):
    return parallel_batch(partial(module_worker), jobs)


def clean_unrooted_writer(job):
    # Writes module state but is never handed to a worker boundary, so it
    # runs in the parent where the write is perfectly visible.
    RESULTS[job.key] = job.value
    return job


def clean_local_use_only(jobs):
    buffer = []
    for job in jobs:
        buffer.append(module_worker(job))
    return buffer
