"""The paper's primary contribution: deciding bag containment of a
projection-free CQ into a generic CQ via monomial-polynomial inequalities."""

from types import MappingProxyType
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# Eager: `probe_tuples` is also a submodule, whose import would rebind the
# attribute to the module object and shadow a lazy function.
from repro.core.probe_tuples import probe_tuples

if TYPE_CHECKING:
    from repro.core.certificates import (
        ContainmentCounterexample,
        counterexample_from_witness,
        uniform_counterexample,
    )
    from repro.core.decision import (
        STRATEGIES,
        BagContainmentResult,
        are_bag_equivalent,
        decide_bag_containment,
        decide_via_all_probes,
        decide_via_bounded_guess,
        decide_via_most_general_probe,
        is_bag_contained,
    )
    from repro.core.encoding import MpiEncoding, encode, encode_many, encode_most_general
    from repro.core.probe_tuples import (
        canonical_probe_representative,
        is_probe_tuple,
        iter_probe_tuples,
        most_general_probe_tuple,
        probe_domain,
        reduced_probe_tuples,
    )
    from repro.core.reductions import (
        bag_for_polynomial_point,
        graph_query,
        polynomial_pair_to_ucqs,
        polynomial_to_ucq,
        three_colorability_instance,
        triangle_query,
    )
    from repro.core.spectrum import ContainmentSpectrum, Relationship, compare

#: Each exported name and the module that defines it (``repro._lazy``).
_EXPORTS = MappingProxyType(
    {
        "BagContainmentResult": "repro.core.decision",
        "ContainmentCounterexample": "repro.core.certificates",
        "ContainmentSpectrum": "repro.core.spectrum",
        "MpiEncoding": "repro.core.encoding",
        "Relationship": "repro.core.spectrum",
        "STRATEGIES": "repro.core.decision",
        "are_bag_equivalent": "repro.core.decision",
        "bag_for_polynomial_point": "repro.core.reductions",
        "canonical_probe_representative": "repro.core.probe_tuples",
        "compare": "repro.core.spectrum",
        "counterexample_from_witness": "repro.core.certificates",
        "decide_bag_containment": "repro.core.decision",
        "decide_via_all_probes": "repro.core.decision",
        "decide_via_bounded_guess": "repro.core.decision",
        "decide_via_most_general_probe": "repro.core.decision",
        "encode": "repro.core.encoding",
        "encode_many": "repro.core.encoding",
        "encode_most_general": "repro.core.encoding",
        "graph_query": "repro.core.reductions",
        "is_bag_contained": "repro.core.decision",
        "is_probe_tuple": "repro.core.probe_tuples",
        "iter_probe_tuples": "repro.core.probe_tuples",
        "most_general_probe_tuple": "repro.core.probe_tuples",
        "polynomial_pair_to_ucqs": "repro.core.reductions",
        "polynomial_to_ucq": "repro.core.reductions",
        "probe_domain": "repro.core.probe_tuples",
        "reduced_probe_tuples": "repro.core.probe_tuples",
        "three_colorability_instance": "repro.core.reductions",
        "triangle_query": "repro.core.reductions",
        "uniform_counterexample": "repro.core.certificates",
    }
)

# Type checkers see the names through the `TYPE_CHECKING` imports above.
if not TYPE_CHECKING:
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [*_EXPORTS, "probe_tuples"]
