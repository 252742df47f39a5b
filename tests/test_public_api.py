"""Tests for the top-level public API surface.

A downstream user should be able to work entirely from ``import repro``;
these tests pin the names the README and the examples rely on, and run the
README quickstart end to end.
"""

import importlib

import pytest

import repro

#: Top-level names removed in 2.0, each replaced by a ``Session`` method
#: (see the README's "Removed in 2.0" note).
RETIRED_NAMES = (
    "are_bag_equivalent",
    "are_bag_set_equivalent",
    "are_set_equivalent",
    "compare",
    "containment_mappings_many",
    "count_many",
    "decide_bag_containment",
    "decide_bag_set_containment",
    "decide_set_containment",
    "default_session",
    "encode",
    "encode_most_general",
    "evaluate_bag",
    "evaluate_bag_many",
    "evaluate_bag_set",
    "evaluate_set",
    "is_bag_contained",
    "is_set_contained",
    "register_backend",
    "register_strategy",
    "run_campaign",
    "run_differential_oracle",
    "set_default_backend",
    "use_backend",
)


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2
        assert repro.__version__ == "2.0.0"

    def test_readme_quickstart(self):
        session = repro.Session()
        q1 = repro.parse_cq("q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)")
        q2 = repro.parse_cq("q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)")
        assert session.decide(q1, q2).verdict
        outcome = session.decide(q2, q1)
        assert not outcome.verdict
        assert outcome.certificate is not None
        assert "multiplicity" in outcome.certificate.describe()

        a, b = repro.Constant("a"), repro.Constant("b")
        bag = repro.BagInstance({repro.Atom("R", (a, b)): 2, repro.Atom("P", (b, b)): 1})
        assert session.evaluate(q1, bag).value[(a, b)] == 4

    def test_compare_is_exposed(self):
        q1 = repro.parse_cq("q(x) <- R(x, x)")
        spectrum = repro.Session().containment_spectrum(q1, q1.with_name("copy")).value
        assert spectrum.relationship is repro.Relationship.EQUIVALENT

    def test_core_helpers_are_exposed(self):
        query = repro.parse_cq("q(x1) <- R(x1, c1)")
        assert len(repro.probe_tuples(query)) == 2
        assert len(repro.most_general_probe_tuple(query)) == 1
        encoding = repro.Session().mpi(query, query.with_name("copy")).value
        assert encoding.dimension == 1


class TestRetiredNames:
    @pytest.mark.parametrize("name", RETIRED_NAMES)
    def test_retired_name_is_absent(self, name):
        assert name not in repro.__all__
        assert not hasattr(repro, name)

    @pytest.mark.parametrize("name", ["register_backend", "register_strategy", "default_session"])
    def test_retired_name_is_absent_from_the_session_package(self, name):
        import repro.session

        assert not hasattr(repro.session, name)

    @pytest.mark.parametrize(
        "name", ["use_backend", "set_default_backend", "register_backend", "query_fingerprint"]
    )
    def test_retired_name_is_absent_from_the_engine_package(self, name):
        import repro.engine

        assert not hasattr(repro.engine, name)

    @pytest.mark.parametrize("module", ["repro.session.shims", "repro.session.registry"])
    def test_retired_module_cannot_be_imported(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
