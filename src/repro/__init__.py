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

from types import MappingProxyType
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.refuters import bounded_bag_refuter, random_bag_refuter
    # `core` itself would shadow the repro.core subpackage.
    from repro.containment.minimization import core as minimal_core
    from repro.containment.set_containment import SetContainmentResult
    from repro.core.certificates import ContainmentCounterexample
    from repro.core.decision import BagContainmentResult, strategy_names
    from repro.core.encoding import MpiEncoding
    from repro.core.probe_tuples import most_general_probe_tuple, probe_tuples
    from repro.core.reductions import three_colorability_instance
    from repro.core.spectrum import ContainmentSpectrum, Relationship
    from repro.diophantine.inequalities import MonomialPolynomialInequality
    from repro.diophantine.monomials import Monomial
    from repro.diophantine.polynomials import Polynomial
    from repro.diophantine.solver import decide_mpi
    from repro.engine.backends import backend_names, default_cache, get_backend
    from repro.engine.batch import BagBatchEvaluator
    from repro.engine.cache import EngineCache
    from repro.evaluation.bag_evaluation import AnswerBag
    from repro.queries.builder import QueryBuilder
    from repro.queries.cq import ConjunctiveQuery
    from repro.queries.parser import parse_cq, parse_ucq
    from repro.queries.ucq import UnionOfConjunctiveQueries
    from repro.relational.atoms import Atom, RelationSchema
    from repro.relational.instances import BagInstance, SetInstance
    from repro.relational.schema import DatabaseSchema
    from repro.relational.substitutions import Substitution
    from repro.relational.terms import Constant, Variable
    from repro.session.requests import ContainmentRequest, EvaluationRequest, MpiRequest, Outcome
    from repro.session.session import (
        Limits,
        Session,
        SessionSpec,
        current_session,
        use_session,
    )
    from repro.verify.oracles import OracleConfig, OracleReport
    from repro.verify.runner import CampaignConfig, CampaignReport
    from repro.verify.shrink import shrink_pair

#: Each exported name and the module that defines it, imported on first
#: access (``repro._lazy``): ``import repro`` loads no subpackage.
_EXPORTS = MappingProxyType(
    {
        "AnswerBag": "repro.evaluation.bag_evaluation",
        "Atom": "repro.relational.atoms",
        "BagBatchEvaluator": "repro.engine.batch",
        "BagContainmentResult": "repro.core.decision",
        "BagInstance": "repro.relational.instances",
        "CampaignConfig": "repro.verify.runner",
        "CampaignReport": "repro.verify.runner",
        "ConjunctiveQuery": "repro.queries.cq",
        "Constant": "repro.relational.terms",
        "ContainmentCounterexample": "repro.core.certificates",
        "ContainmentRequest": "repro.session.requests",
        "ContainmentSpectrum": "repro.core.spectrum",
        "DatabaseSchema": "repro.relational.schema",
        "EngineCache": "repro.engine.cache",
        "EvaluationRequest": "repro.session.requests",
        "Limits": "repro.session.session",
        "Monomial": "repro.diophantine.monomials",
        "MonomialPolynomialInequality": "repro.diophantine.inequalities",
        "MpiEncoding": "repro.core.encoding",
        "MpiRequest": "repro.session.requests",
        "OracleConfig": "repro.verify.oracles",
        "OracleReport": "repro.verify.oracles",
        "Outcome": "repro.session.requests",
        "Polynomial": "repro.diophantine.polynomials",
        "QueryBuilder": "repro.queries.builder",
        "RelationSchema": "repro.relational.atoms",
        "Relationship": "repro.core.spectrum",
        "Session": "repro.session.session",
        "SessionSpec": "repro.session.session",
        "SetContainmentResult": "repro.containment.set_containment",
        "SetInstance": "repro.relational.instances",
        "Substitution": "repro.relational.substitutions",
        "UnionOfConjunctiveQueries": "repro.queries.ucq",
        "Variable": "repro.relational.terms",
        "backend_names": "repro.engine.backends",
        "bounded_bag_refuter": "repro.baselines.refuters",
        "current_session": "repro.session.session",
        "decide_mpi": "repro.diophantine.solver",
        "default_cache": "repro.engine.backends",
        "get_backend": "repro.engine.backends",
        "minimal_core": "repro.containment.minimization:core",
        "most_general_probe_tuple": "repro.core.probe_tuples",
        "parse_cq": "repro.queries.parser",
        "parse_ucq": "repro.queries.parser",
        "probe_tuples": "repro.core.probe_tuples",
        "random_bag_refuter": "repro.baselines.refuters",
        "shrink_pair": "repro.verify.shrink",
        "strategy_names": "repro.core.decision",
        "three_colorability_instance": "repro.core.reductions",
        "use_session": "repro.session.session",
    }
)

# Type checkers see the names through the `TYPE_CHECKING` imports above.
if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__version__ = "2.0.0"

__all__ = [*_EXPORTS, "__version__"]
