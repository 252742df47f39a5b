"""repro — bag containment of projection-free conjunctive queries.

A production-quality reproduction of *“Attacking Diophantus: Solving a
Special Case of Bag Containment”* (Konstantinidis & Mogavero, PODS 2019).

The package decides whether a projection-free conjunctive query is
bag-contained in an arbitrary conjunctive query by encoding the problem as a
monomial–polynomial Diophantine inequality and solving the inequality via a
homogeneous linear system, exactly as in the paper.  It also ships the full
substrate the decision procedure stands on: a relational model with bag
instances, a query model with bag representation, evaluation engines for
set / bag / bag-set semantics, Chandra–Merlin set containment, exact linear
feasibility solvers, brute-force baselines, workload generators, and the
hardness reductions.

Quick start
-----------
>>> from repro import Session, parse_cq
>>> session = Session()
>>> q1 = parse_cq("q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)")
>>> q2 = parse_cq("q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)")
>>> session.decide(q1, q2).verdict
True
>>> session.decide(q2, q1).verdict
False

Every service call goes through a :class:`Session`.  The loose top-level
functions of 1.x (``decide_bag_containment`` and friends) and the
process-global backend switch were removed in 2.0; the README's *Session
API* section names each replacement.
"""

from repro.baselines import bounded_bag_refuter, random_bag_refuter
from repro.containment import (
    SetContainmentResult,
    core as minimal_core,  # `core` itself would shadow the repro.core subpackage
)
from repro.core import (
    BagContainmentResult,
    ContainmentCounterexample,
    ContainmentSpectrum,
    MpiEncoding,
    Relationship,
    most_general_probe_tuple,
    probe_tuples,
    three_colorability_instance,
)
from repro.diophantine import (
    Monomial,
    MonomialPolynomialInequality,
    Polynomial,
    decide_mpi,
)
from repro.engine import (
    BagBatchEvaluator,
    EngineCache,
    default_cache,
    get_backend,
)
from repro.evaluation import AnswerBag
from repro.queries import (
    ConjunctiveQuery,
    QueryBuilder,
    UnionOfConjunctiveQueries,
    parse_cq,
    parse_ucq,
)
from repro.relational import (
    Atom,
    BagInstance,
    Constant,
    DatabaseSchema,
    RelationSchema,
    SetInstance,
    Substitution,
    Variable,
)
from repro.session import (
    ContainmentRequest,
    EvaluationRequest,
    Limits,
    MpiRequest,
    Outcome,
    Session,
    SessionSpec,
    backend_names,
    current_session,
    strategy_names,
    use_session,
)
from repro.verify import (
    CampaignConfig,
    CampaignReport,
    OracleConfig,
    OracleReport,
    shrink_pair,
)

__version__ = "2.0.0"

__all__ = [
    "AnswerBag",
    "Atom",
    "BagBatchEvaluator",
    "BagContainmentResult",
    "BagInstance",
    "CampaignConfig",
    "CampaignReport",
    "ConjunctiveQuery",
    "Constant",
    "ContainmentCounterexample",
    "ContainmentRequest",
    "ContainmentSpectrum",
    "DatabaseSchema",
    "EngineCache",
    "EvaluationRequest",
    "Limits",
    "Monomial",
    "MonomialPolynomialInequality",
    "MpiEncoding",
    "MpiRequest",
    "OracleConfig",
    "OracleReport",
    "Outcome",
    "Polynomial",
    "QueryBuilder",
    "RelationSchema",
    "Relationship",
    "Session",
    "SessionSpec",
    "SetContainmentResult",
    "SetInstance",
    "Substitution",
    "UnionOfConjunctiveQueries",
    "Variable",
    "backend_names",
    "bounded_bag_refuter",
    "current_session",
    "decide_mpi",
    "default_cache",
    "get_backend",
    "minimal_core",
    "most_general_probe_tuple",
    "parse_cq",
    "parse_ucq",
    "probe_tuples",
    "random_bag_refuter",
    "shrink_pair",
    "strategy_names",
    "three_colorability_instance",
    "use_session",
    "__version__",
]
