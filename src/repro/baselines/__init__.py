"""Baselines: the brute-force bag refuters.

They are sound but incomplete checks of a verdict; ``Session.verify`` runs
them next to the exact decider (see :mod:`repro.verify.oracles`).
"""

from repro.baselines.refuters import (
    RefutationOutcome,
    bounded_bag_refuter,
    check_bag,
    random_bag_refuter,
)

__all__ = [
    "RefutationOutcome",
    "bounded_bag_refuter",
    "check_bag",
    "random_bag_refuter",
]
