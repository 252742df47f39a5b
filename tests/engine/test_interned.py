"""Unit tests for the interned data plane: dictionary, plans, backend."""

import pytest

from repro.engine import EngineCache, InternedBackend, create_backend, get_backend
from repro.engine.interning import ID_BITS, InternedTarget, TermDictionary, pack_ids
from repro.exceptions import ReproError
from repro.relational.atoms import Atom
from repro.relational.substitutions import Substitution
from repro.relational.terms import Constant, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


def fresh_backend() -> InternedBackend:
    return InternedBackend(cache=EngineCache())


class TestTermDictionary:
    def test_ids_are_dense_and_stable(self):
        dictionary = TermDictionary()
        assert dictionary.intern(x) == 0
        assert dictionary.intern(a) == 1
        assert dictionary.intern(x) == 0  # repeated interning is a lookup
        assert dictionary.term(0) == x
        assert dictionary.term(1) == a
        assert len(dictionary) == 2

    def test_serials_are_unique(self):
        assert TermDictionary().serial != TermDictionary().serial

    def test_id_space_overflow_raises_at_the_boundary(self):
        from repro.exceptions import TermIdOverflowError

        dictionary = TermDictionary(id_bits=3)
        assert dictionary.capacity == 8
        terms = [Constant(f"c{i}") for i in range(9)]
        for term in terms[:8]:  # ids 0..7 fill the 3-bit window exactly
            dictionary.intern(term)
        assert len(dictionary) == 8
        with pytest.raises(TermIdOverflowError) as excinfo:
            dictionary.intern(terms[8])
        error = excinfo.value
        assert error.id_bits == 3
        assert error.capacity == 8
        assert error.term == terms[8]
        assert isinstance(error, ReproError)
        # The failed intern must not have grown or corrupted the dictionary.
        assert len(dictionary) == 8
        assert dictionary.lookup(terms[8]) is None
        assert dictionary.intern(terms[0]) == 0  # existing ids still resolve

    def test_default_dictionary_bound_matches_pack_window(self):
        dictionary = TermDictionary()
        assert dictionary.id_bits == ID_BITS
        assert dictionary.capacity == 1 << ID_BITS

    def test_rejects_nonpositive_id_bits(self):
        with pytest.raises(ValueError):
            TermDictionary(id_bits=0)

    def test_lookup_never_interns(self):
        dictionary = TermDictionary()
        assert dictionary.lookup(x) is None
        assert len(dictionary) == 0
        dictionary.intern(x)
        assert dictionary.lookup(x) == 0

    def test_pack_ids_is_positional(self):
        assert pack_ids([7]) == 7
        assert pack_ids([1, 2]) == (1 << ID_BITS) | 2
        assert pack_ids([1, 2]) != pack_ids([2, 1])


class TestInternedTarget:
    def test_columnar_layout_and_group_index(self):
        dictionary = TermDictionary()
        target = InternedTarget(dictionary, [Atom("R", (a, b)), Atom("R", (a, c)), Atom("S", (b,))])
        assert target.relation_sizes() == {("R", 2): 2, ("S", 1): 1}
        assert len(target.rows("R", 2)) == 2
        # Selectivity is unknown until the signature index is built...
        assert target.selectivity("R", 2, (0,)) is None
        index = target.group_index("R", 2, (0,))
        # ...after which it reports average candidates per probe: 2 rows, 1 group.
        assert target.selectivity("R", 2, (0,)) == 2.0
        assert index[dictionary.intern(a)] == (
            (dictionary.intern(a), dictionary.intern(b)),
            (dictionary.intern(a), dictionary.intern(c)),
        )

    def test_duplicate_atoms_are_deduplicated(self):
        target = InternedTarget(TermDictionary(), [Atom("R", (a, b)), Atom("R", (a, b))])
        assert len(target) == 1
        assert len(target.rows("R", 2)) == 1


class TestPlanShapes:
    def test_projection_free_fold_compiles_to_static_filters_only(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)), Atom("R", (y, x)))
        target = (Atom("R", (a, b)), Atom("R", (b, a)))
        plan = backend.plan(source, target, {x: a, y: b})
        assert plan.static_steps and not plan.steps
        assert backend.count(source, target, {x: a, y: b}) == 1

    def test_existential_variables_stay_in_the_search(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)), Atom("R", (x, z)))  # z is existential
        target = (Atom("R", (a, b)), Atom("R", (a, c)))
        plan = backend.plan(source, target, {x: a, y: b})
        assert len(plan.static_steps) == 1
        assert len(plan.steps) == 1
        assert backend.count(source, target, {x: a, y: b}) == 2
        assert "static filters" in plan.describe()

    def test_observed_selectivity_orders_cheaper_signatures_first(self):
        backend = fresh_backend()
        # A target where R-probes on position 0 return many candidates but
        # S-probes return exactly one.
        target = tuple(Atom("R", (a, Constant(f"v{i}"))) for i in range(8)) + (Atom("S", (a, b)),)
        source = (Atom("R", (x, y)), Atom("S", (x, z)))
        backend.count(source, target, {x: a})  # builds both signature indexes
        plan = backend.plan((Atom("R", (x, y)), Atom("S", (x, y))), target, {x: a})
        # With observed selectivity (R: 8 per probe, S: 1 per probe) the S
        # atom must be scheduled before the R atom.
        first = (plan.static_steps + plan.steps)[0]
        assert first.atom.relation == "S"

    def test_check_fixed_contract(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)),)
        plan = backend.plan(source, target, {x: a})
        with pytest.raises(ReproError):  # missing compiled fixed binding
            plan.check_fixed({})
        with pytest.raises(ReproError):  # unplanned source-variable binding
            plan.check_fixed({x: a, y: b})
        # Extra bindings for non-source variables ride along.
        [substitution] = list(backend.iterate(source, target, {x: a, z: c}))
        assert substitution[z] == c
        assert substitution[y] == b


class TestBackendBehaviour:
    def test_registered_and_session_visible(self):
        from repro.engine import backend_names
        from repro.session import Session

        assert "interned" in backend_names()
        assert isinstance(get_backend("interned"), InternedBackend)
        session = Session(backend="interned")
        outcome = session.decide(
            *__import__("repro.verify.corpus", fromlist=["builtin_pairs"]).builtin_pairs()[0]
        )
        assert outcome.verdict is not None

    def test_identity_memo_hits_on_stable_tuples(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)),)
        first = backend.plan(source, target, {x: a})
        assert backend.plan(source, target, {x: a}) is first
        # A logically equal triple under a fresh identity shares the
        # underlying fingerprint-keyed plan.
        assert backend.plan(tuple(source), tuple(target), {x: a}) is first

    def test_invalidate_drops_interned_entries(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)),)
        other = (Atom("S", (a, b)),)
        assert backend.count(source, target) == 1
        backend.count((Atom("S", (x, y)),), other)
        dropped = backend.cache.invalidate(target)
        assert dropped >= 3  # the target's index, plan and result entries
        # The unrelated target's result memo survives and still hits.
        hits_before = backend.cache.result_stats.hits
        assert backend.count((Atom("S", (x, y)),), other) == 1
        assert backend.cache.result_stats.hits == hits_before + 1

    def test_result_memos_are_backend_private(self):
        # Two backends sharing one cache must not serve each other's
        # count/exists results — the differential oracle depends on it.
        class Twin(InternedBackend):
            name = "twin"

        cache = EngineCache()
        twin = Twin(cache=cache)
        interned = create_backend("interned", cache)
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)), Atom("R", (a, c)))
        assert twin.count(source, target) == 2
        misses_before = cache.result_stats.misses
        assert interned.count(source, target) == 2
        assert cache.result_stats.misses == misses_before + 1  # not a shared hit

    def test_selectivity_counters_accumulate_and_describe(self):
        backend = fresh_backend()
        source = (Atom("R", (x, y)),)
        target = (Atom("R", (a, b)), Atom("R", (a, c)))
        list(backend.iterate(source, target, {x: a}))
        key = ("R", 2, (0,))
        probes, candidates = backend.selectivity[key]
        assert probes >= 1 and candidates >= 2
        rendered = backend.describe_selectivity()
        assert "R/2[0]" in rendered
        assert InternedBackend(cache=EngineCache()).describe_selectivity() == (
            "no signature probes recorded"
        )

    def test_arity_zero_atoms(self):
        backend = fresh_backend()
        assert backend.count((Atom("R", ()),), (Atom("R", ()),)) == 1
        assert backend.count((Atom("R", ()),), (Atom("S", ()),)) == 0


class TestAgreesWithNaive:
    def test_duplicate_fresh_variables_become_row_checks(self):
        # S(y, y) inside one atom: both occurrences come from the same row.
        backend = fresh_backend()
        source = [Atom("R", (x,)), Atom("S", (x, y, y))]
        target = [
            Atom("R", (a,)),
            Atom("S", (a, b, b)),
            Atom("S", (a, b, c)),  # mismatched duplicate: must be filtered
        ]
        naive = get_backend("naive")
        assert backend.count(source, target) == naive.count(source, target) == 1

    def test_modes_agree_on_a_joined_source(self):
        backend = fresh_backend()
        naive = get_backend("naive")
        source = [Atom("R", (x, y)), Atom("S", (y, z))]
        target = [Atom("R", (a, b)), Atom("S", (b, c)), Atom("S", (b, b))]
        count = naive.count(source, target)
        assert backend.count(source, target) == count
        assert backend.exists(source, target) == (count > 0)
        assert len(list(backend.iterate(source, target))) == count

    def test_substitutions_behave_like_eager_ones(self):
        backend = fresh_backend()
        (solution,) = backend.iterate([Atom("R", (x, y))], [Atom("R", (a, b))])
        eager = Substitution({x: a, y: b})
        assert solution == eager
        assert hash(solution) == hash(eager)
        assert dict(solution) == {x: a, y: b}
        assert solution.apply_atom(Atom("S", (x, y))) == Atom("S", (a, b))

    def test_substitutions_pickle_as_plain_substitutions(self):
        import pickle

        backend = fresh_backend()
        (solution,) = backend.iterate([Atom("R", (x, y))], [Atom("R", (a, b))])
        restored = pickle.loads(pickle.dumps(solution))
        assert type(restored) is Substitution
        assert restored == solution

    def test_identity_fixed_bindings_match_the_reference(self):
        # fixed={x: x} pins the slot to the variable's own id; the result
        # must match the naive reference for every fixed shape.
        backend = fresh_backend()
        naive = get_backend("naive")
        source = [Atom("R", (x, y))]
        target = [Atom("R", (x, b)), Atom("R", (a, b))]
        for fixed in ({x: x}, {x: a}, {}):
            expected = sorted(map(repr, naive.iterate(source, target, fixed)))
            actual = sorted(map(repr, backend.iterate(source, target, fixed)))
            assert actual == expected, fixed

    def test_variable_targets_drop_identity_bindings(self):
        # The target mentions x itself, so x -> x is a possible image; the
        # materialised substitution must omit it, like the reference does.
        backend = fresh_backend()
        (solution,) = backend.iterate([Atom("R", (x, y))], [Atom("R", (x, b))])
        assert x not in solution
        assert solution[y] == b
        (reference,) = get_backend("naive").iterate([Atom("R", (x, y))], [Atom("R", (x, b))])
        assert solution == reference


class TestParallelRehydration:
    def test_session_spec_rehydrates_interned_workers(self):
        from repro.session import Session
        from repro.workloads.scale import mixed_requests

        requests = mixed_requests(6, seed=3, verify_certificates=False)
        serial = [outcome.verdict for outcome in Session(backend="interned").batch(requests)]
        parallel_session = Session(backend="interned")
        assert parallel_session.spec().backend == "interned"
        parallel = [
            outcome.verdict
            for outcome in parallel_session.batch(requests, jobs=2, chunk_size=2)
        ]
        assert parallel == serial
