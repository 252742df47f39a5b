"""Differential fuzzing & metamorphic verification (the ``repro fuzz`` engine).

The subsystem turns the library's redundancy — three decision strategies,
three engine backends, two Diophantine feasibility paths, the refuter
baselines and the cross-semantics implications — into an always-on
correctness harness:

* :mod:`repro.verify.oracles` — differential oracles that run one pair
  through every combination, replay every counterexample certificate, and
  report disagreements as structured :class:`Discrepancy` records;
* :mod:`repro.verify.metamorphic` — semantics-preserving and
  semantics-known pair mutations with provable verdict-transfer rules;
* :mod:`repro.verify.shrink` — a delta-debugging shrinker that minimizes a
  failing pair while the discrepancy persists;
* :mod:`repro.verify.corpus` — seeded JSON corpora for deterministic
  regression replay;
* :mod:`repro.verify.runner` — the campaign runner behind the
  ``repro fuzz`` CLI subcommand; each case is a session request
  (:class:`CaseRequest`), run serially or on the parallel batch harness.
"""

from repro.verify.corpus import (
    BUILTIN_PAIR_TEXTS,
    CorpusEntry,
    builtin_pairs,
    load_corpus,
    replay_corpus,
    save_corpus,
)
from repro.verify.metamorphic import (
    MUTATIONS,
    MetamorphicMutation,
    expected_verdict,
    mutation_by_name,
)
from repro.verify.oracles import (
    DIOPHANTINE_PATHS,
    Discrepancy,
    OracleConfig,
    OracleReport,
    StrategyRun,
    run_differential_oracle,
)
from repro.verify.runner import (
    CampaignConfig,
    CampaignFailure,
    CampaignReport,
    CaseRequest,
    CaseResult,
    FuzzCase,
    campaign_corpus,
    generate_case,
    run_campaign,
    run_case,
)
from repro.verify.shrink import ShrinkResult, shrink_pair

__all__ = [
    "BUILTIN_PAIR_TEXTS",
    "CampaignConfig",
    "CampaignFailure",
    "CampaignReport",
    "CaseRequest",
    "CaseResult",
    "CorpusEntry",
    "DIOPHANTINE_PATHS",
    "Discrepancy",
    "FuzzCase",
    "MUTATIONS",
    "MetamorphicMutation",
    "OracleConfig",
    "OracleReport",
    "ShrinkResult",
    "StrategyRun",
    "builtin_pairs",
    "campaign_corpus",
    "expected_verdict",
    "generate_case",
    "load_corpus",
    "mutation_by_name",
    "replay_corpus",
    "run_campaign",
    "run_case",
    "run_differential_oracle",
    "save_corpus",
    "shrink_pair",
]
