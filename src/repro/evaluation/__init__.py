"""Evaluation engine: homomorphisms, set / bag / bag-set semantics."""

from repro.evaluation.bag_evaluation import (
    AnswerBag,
    bag_multiplicity,
    evaluate_bag,
    evaluate_bag_ucq,
)
from repro.evaluation.bag_set_evaluation import (
    bag_set_multiplicity,
    evaluate_bag_set,
    evaluate_bag_set_ucq,
)
from repro.evaluation.homomorphisms import containment_mappings, query_homomorphisms
from repro.evaluation.set_evaluation import answer_tuples, evaluate_set, evaluate_set_ucq, holds

__all__ = [
    "AnswerBag",
    "answer_tuples",
    "bag_multiplicity",
    "bag_set_multiplicity",
    "containment_mappings",
    "evaluate_bag",
    "evaluate_bag_set",
    "evaluate_bag_set_ucq",
    "evaluate_bag_ucq",
    "evaluate_set",
    "evaluate_set_ucq",
    "holds",
    "query_homomorphisms",
]
