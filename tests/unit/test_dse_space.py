"""Unit tests for the design-space model (candidates, enumeration, mutation)."""

import hashlib
import random

import pytest

from repro.campaign import canonical_json
from repro.dse import CompiledProblem, MappingCandidate, get_problem, problem_names
from repro.dse.space import _interleavings
from repro.errors import CampaignError, ModelError, ReproError


@pytest.fixture()
def space():
    return get_problem("didactic").space({"items": 10})


@pytest.fixture()
def alloc_space():
    return get_problem("didactic").space({"items": 10}, explore_orders=False)


class TestCandidateEncoding:
    def test_round_trip_through_parameters(self, space):
        candidate = space.default_candidate()
        rebuilt = MappingCandidate.from_parameters(candidate.to_parameters())
        assert rebuilt == candidate
        assert rebuilt.digest() == candidate.digest()
        assert hash(rebuilt) == hash(candidate)

    def test_digest_differs_for_different_orders(self, space):
        base = space.canonical({"F1": "P1", "F2": "P1", "F3": "P1", "F4": "P1"})
        reordered = MappingCandidate(
            allocation=base.allocation,
            orders=(("P1", tuple(reversed(base.orders[0][1]))),),
        )
        assert reordered.digest() != base.digest()

    def test_queries_and_describe(self, space):
        candidate = space.canonical({"F1": "P1", "F2": "P1", "F3": "P2", "F4": "P2"})
        assert candidate.resource_of("F3") == "P2"
        assert candidate.resources_used() == ("P1", "P2")
        assert candidate.describe() == "P1:{F1,F2} P2:{F3,F4}"
        with pytest.raises(ModelError):
            candidate.resource_of("F9")

    def test_build_mapping_validates_against_architecture(self, space):
        candidate = space.default_candidate()
        mapping = candidate.build_mapping()
        assert mapping.allocation == dict(candidate.allocation)

    def test_from_parameters_requires_allocation(self):
        with pytest.raises(ModelError, match="allocation"):
            MappingCandidate.from_parameters({"orders": {}})

    @pytest.mark.parametrize("problem", problem_names())
    def test_digest_is_the_canonical_json_digest(self, problem):
        # digest() skips the canonical walk for plain candidates; the text
        # it hashes must stay the canonical JSON byte for byte.
        space = get_problem(problem).space({"items": 4})
        rng = random.Random(problem)
        candidates = [space.default_candidate()]
        candidates += [space.random_candidate(rng) for _ in range(20)]
        candidates += [space.mutate(candidate, rng) for candidate in candidates]
        for candidate in candidates:
            text = canonical_json(candidate.to_parameters())
            assert candidate.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_digest_of_a_non_plain_candidate_takes_the_canonical_walk(self, space):
        base = space.canonical({"F1": "P1", "F2": "P1", "F3": "P1", "F4": "P1"})
        resource, order = base.orders[0]
        # A float step index is valid JSON but not plain: the walk encodes it.
        floating = MappingCandidate(
            allocation=base.allocation,
            orders=((resource, tuple((function, float(index)) for function, index in order)),),
        )
        text = canonical_json(floating.to_parameters())
        assert floating.digest() == hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert floating.digest() != base.digest()
        # Values the walk rejects are still rejected.
        for bad in (float("nan"), object()):
            broken = MappingCandidate(
                allocation=base.allocation,
                orders=((resource, ((order[0][0], bad),) + order[1:]),),
            )
            with pytest.raises(CampaignError):
                broken.digest()


class TestCanonicalisation:
    def test_identical_resources_are_relabelled(self, space):
        # Using P4/P3 instead of P1/P2 is the same design point.
        a = space.canonical({"F1": "P4", "F2": "P4", "F3": "P3", "F4": "P3"})
        b = space.canonical({"F1": "P1", "F2": "P1", "F3": "P2", "F4": "P2"})
        assert a == b
        assert a.resources_used() == ("P1", "P2")

    def test_max_resources_enforced(self):
        space = get_problem("didactic").space({"items": 10}, max_resources=2)
        with pytest.raises(ModelError, match="max_resources"):
            space.canonical({"F1": "P1", "F2": "P2", "F3": "P3", "F4": "P1"})
        with pytest.raises(ModelError):
            get_problem("didactic").space({"items": 10}, max_resources=9)

    def test_incomplete_allocation_rejected(self, space):
        with pytest.raises(ModelError, match="misses function"):
            space.canonical({"F1": "P1"})

    def test_default_order_respects_dependencies(self, space):
        # On one processor the didactic stage is only schedulable with Ti2
        # before Tj3 (F2's second step needs F3's output in-iteration).
        order = space.default_order(["F1", "F2", "F3", "F4"])
        labels = [f"{function}#{index}" for function, index in order]
        assert labels.index("F3#1") < labels.index("F2#3")

    def test_candidate_from_mapping_round_trips(self, space):
        candidate = space.canonical({"F1": "P1", "F2": "P2", "F3": "P2", "F4": "P1"})
        mapping = candidate.build_mapping()
        assert space.candidate_from_mapping(mapping).allocation == candidate.allocation


class TestEnumeration:
    def test_allocations_are_set_partitions(self, alloc_space):
        # 4 functions over interchangeable resources: Bell(4) = 15 partitions.
        allocations = list(alloc_space.enumerate_allocations())
        assert len(allocations) == 15
        assert len({candidate.digest() for candidate in allocations}) == 15

    def test_max_resources_caps_partitions(self):
        space = get_problem("didactic").space(
            {"items": 10}, max_resources=1, explore_orders=False
        )
        allocations = list(space.enumerate_allocations())
        assert len(allocations) == 1
        assert allocations[0].resources_used() == ("P1",)

    def test_orders_multiply_the_space(self, space, alloc_space):
        assert alloc_space.size() == 15
        assert space.size() == 315  # interleavings of the didactic steps
        assert space.size(cap=100) == 100  # the cap is honoured

    def test_enumeration_is_deterministic(self, space):
        first = [c.digest() for c in space.enumerate_candidates(limit=50)]
        second = [c.digest() for c in space.enumerate_candidates(limit=50)]
        assert first == second

    def test_interleavings_preserve_internal_order(self):
        merged = list(_interleavings([(("A", 0), ("A", 1)), (("B", 0),)]))
        assert len(merged) == 3  # C(3,1) positions for B among A's two steps
        for sequence in merged:
            assert sequence.index(("A", 0)) < sequence.index(("A", 1))


class TestSamplingAndMutation:
    def test_random_candidates_are_reproducible(self, space):
        a = [space.random_candidate(random.Random(5)).digest() for _ in range(20)]
        b = [space.random_candidate(random.Random(5)).digest() for _ in range(20)]
        assert a == b

    def test_random_candidate_respects_max_resources(self):
        space = get_problem("didactic").space({"items": 10}, max_resources=2)
        rng = random.Random(1)
        for _ in range(30):
            candidate = space.random_candidate(rng)
            assert len(candidate.resources_used()) <= 2

    def test_mutation_produces_valid_candidates(self, space):
        rng = random.Random(9)
        candidate = space.default_candidate()
        for _ in range(50):
            candidate = space.mutate(candidate, rng)
            # every mutant must still be a complete, canonical allocation
            assert {f for f, _ in candidate.allocation} == set(space.functions)
            assert len(candidate.resources_used()) <= space.max_resources

    def test_neighbors_count(self, space):
        rng = random.Random(0)
        neighbors = space.neighbors(space.default_candidate(), rng, 7)
        assert len(neighbors) == 7

    def test_strict_mutation_keeps_orders_of_unaffected_resources(self):
        # Order exploration on: a move/swap that only touches other resources
        # must leave P1's explicit order decision alone (strict resampling is
        # restricted to the resources the move invalidated).
        space = get_problem("didactic").space({"items": 10})
        base = space.canonical({"F1": "P1", "F2": "P1", "F3": "P2", "F4": "P3"})
        rng = random.Random(11)
        p1_order = space._sample_feasible_orders(base, {"P1"}, {}, rng)["P1"]
        candidate = MappingCandidate(
            allocation=base.allocation,
            orders=(("P1", p1_order),) + base.orders[1:],
        )
        kept = 0
        for _ in range(80):
            mutated = space.mutate(candidate, rng)
            p1_functions = {f for f, r in mutated.allocation if r == "P1"}
            if mutated.allocation != candidate.allocation and p1_functions == {"F1", "F2"}:
                # the move touched other resources only
                assert dict(mutated.orders).get("P1") == p1_order
                kept += 1
        assert kept > 0  # the scenario above actually occurred

    def test_mutation_keeps_orders_of_unaffected_resources(self):
        # F1+F2 on P1 with a non-default order, F3 on P2, F4 on P3.  Moving or
        # swapping functions that never touch P1 must keep P1's order decision.
        # (explore_orders=False restricts mutate() to move/swap, so the only
        # way P1's order could change here is the bug this test pins down.)
        space = get_problem("didactic").space({"items": 10}, explore_orders=False)
        base = space.canonical({"F1": "P1", "F2": "P1", "F3": "P2", "F4": "P3"})
        non_default = (("F1", 1), ("F2", 1), ("F1", 3), ("F2", 3))
        assert base.orders[0][0] == "P1" and base.orders[0][1] != non_default
        candidate = MappingCandidate(
            allocation=base.allocation,
            orders=(("P1", non_default),) + base.orders[1:],
        )
        rng = random.Random(2)
        kept = 0
        for _ in range(60):
            mutated = space.mutate(candidate, rng)
            p1_functions = {f for f, r in mutated.allocation if r == "P1"}
            if p1_functions == {"F1", "F2"}:
                p1_order = dict(mutated.orders).get("P1")
                assert p1_order == non_default
                kept += 1
        assert kept > 0  # the scenario above actually occurred


def _order_feasible(compiled, candidate) -> bool:
    """True when the candidate's service orders admit a global schedule."""
    try:
        compiled.specialize(candidate)
    except ReproError:
        return False
    return True


class TestFeasibilityAwareSampling:
    """Topological-order-constrained proposal sampling (strict mode)."""

    @pytest.fixture()
    def compiled(self):
        return CompiledProblem(get_problem("didactic"), {"items": 4})

    def test_random_candidates_are_always_order_feasible(self, space, compiled):
        rng = random.Random(3)
        sampled_non_default = 0
        for _ in range(80):
            candidate = space.random_candidate(rng)
            assert _order_feasible(compiled, candidate)
            defaults = {
                resource: space.default_order(
                    [f for f, r in candidate.allocation if r == resource]
                )
                for resource, _ in candidate.orders
            }
            if any(order != defaults[resource] for resource, order in candidate.orders):
                sampled_non_default += 1
        # the sampler actually explores order variants, not just the default
        assert sampled_non_default > 0

    def test_mutation_chain_stays_order_feasible(self, space, compiled):
        rng = random.Random(4)
        candidate = space.default_candidate()
        for _ in range(80):
            candidate = space.mutate(candidate, rng)
            assert _order_feasible(compiled, candidate)

    def test_strict_false_escape_hatch_probes_infeasibility(self, compiled):
        space = get_problem("didactic").space({"items": 4}, strict=False)
        rng = random.Random(5)
        infeasible = sum(
            not _order_feasible(compiled, space.random_candidate(rng))
            for _ in range(60)
        )
        assert infeasible > 0  # unconstrained interleavings do hit cycles

    def test_strict_sampling_is_seed_deterministic(self):
        first = get_problem("didactic").space({"items": 4})
        second = get_problem("didactic").space({"items": 4})
        rng_a, rng_b = random.Random(6), random.Random(6)
        a = [first.random_candidate(rng_a).digest() for _ in range(30)]
        b = [second.random_candidate(rng_b).digest() for _ in range(30)]
        assert a == b
        mutant_a = first.default_candidate()
        mutant_b = second.default_candidate()
        for _ in range(30):
            mutant_a = first.mutate(mutant_a, rng_a)
            mutant_b = second.mutate(mutant_b, rng_b)
            assert mutant_a.digest() == mutant_b.digest()

    def test_sample_feasible_orders_respects_fixed_constraints(self, space):
        candidate = space.canonical(
            {"F1": "P1", "F2": "P1", "F3": "P2", "F4": "P2"}
        )
        rng = random.Random(7)
        fixed = dict(candidate.orders)
        p1_fixed = {"P1": fixed["P1"]}
        for _ in range(20):
            sampled = space._sample_feasible_orders(candidate, {"P2"}, p1_fixed, rng)
            assert sampled is not None
            assert set(sampled) == {"P2"}
            assert sorted(sampled["P2"]) == sorted(fixed["P2"])

    def test_sample_feasible_orders_detects_contradictory_fixed_orders(self, space):
        candidate = space.canonical({"F1": "P1", "F2": "P1", "F3": "P2", "F4": "P2"})
        rng = random.Random(8)
        # Reversing P1's feasible order closes a dependency cycle with the
        # chain constraints, so sampling P2 against it must fail cleanly.
        broken = {"P1": tuple(reversed(dict(candidate.orders)["P1"]))}
        assert space._sample_feasible_orders(candidate, {"P2"}, broken, rng) is None


class TestCrossover:
    """The allocation/order recombination operator behind NsgaSearch."""

    @pytest.fixture()
    def compiled(self):
        return CompiledProblem(get_problem("didactic"), {"items": 4})

    def test_children_are_valid_and_mix_both_parents(self, space):
        rng = random.Random(11)
        a = space.canonical({"F1": "P1", "F2": "P1", "F3": "P1", "F4": "P1"})
        b = space.canonical({"F1": "P1", "F2": "P2", "F3": "P3", "F4": "P4"})
        mixed = 0
        for _ in range(40):
            child = space.crossover(a, b, rng)
            assert set(f for f, _ in child.allocation) == set(space.functions)
            assert len(set(r for _, r in child.allocation)) <= space.max_resources
            if child.allocation not in (a.allocation, b.allocation):
                mixed += 1
        assert mixed > 0  # recombination, not cloning

    def test_children_respect_max_resources(self):
        space = get_problem("didactic").space({"items": 4}, max_resources=2)
        rng = random.Random(12)
        a = space.canonical({"F1": "P1", "F2": "P1", "F3": "P2", "F4": "P2"})
        b = space.canonical({"F1": "P1", "F2": "P2", "F3": "P1", "F4": "P2"})
        for _ in range(40):
            child = space.crossover(a, b, rng)
            assert len(child.resources_used()) <= 2

    def test_children_stay_order_feasible_in_strict_mode(self, space, compiled):
        rng = random.Random(13)
        parents = [space.random_candidate(rng) for _ in range(8)]
        for _ in range(60):
            a, b = rng.sample(parents, 2)
            child = space.crossover(a, b, rng)
            assert _order_feasible(compiled, child)
            parents[rng.randrange(len(parents))] = child

    def test_matching_groups_inherit_the_parent_order(self, space):
        # Both parents allocate {F1..F4} to one resource with an explicit
        # (non-default) order; a child keeping that group must inherit one
        # parent's order rather than resetting to the default.
        rng = random.Random(14)
        base = space.canonical({"F1": "P1", "F2": "P1", "F3": "P1", "F4": "P1"})
        variant = None
        for _ in range(50):
            candidate = space._randomise_orders(base, rng)
            if candidate.orders != base.orders:
                variant = candidate
                break
        assert variant is not None
        child = space.crossover(variant, variant, rng)
        assert child.allocation == variant.allocation
        assert child.orders == variant.orders

    def test_crossover_is_seed_deterministic(self, space):
        rng_a, rng_b = random.Random(15), random.Random(15)
        a = space.canonical({"F1": "P1", "F2": "P1", "F3": "P2", "F4": "P2"})
        b = space.canonical({"F1": "P1", "F2": "P2", "F3": "P2", "F4": "P1"})
        first = [space.crossover(a, b, rng_a).digest() for _ in range(25)]
        second = [space.crossover(a, b, rng_b).digest() for _ in range(25)]
        assert first == second
