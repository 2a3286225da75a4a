"""Unit tests for Pareto dominance, front tracking, front-quality metrics
and ranked reporting."""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.dse import pareto
from repro.dse.pareto import (
    DEFAULT_OBJECTIVES,
    Objective,
    ParetoFront,
    crowding_distance,
    dominates,
    hypervolume_2d,
    nondominated_rank,
    objective_vector,
    pareto_rank,
    ranked_rows,
    vector_dominates,
)


def metrics(latency_us: float, resources: int, feasible: bool = True, **extra):
    if not feasible:
        return {"feasible": False, "infeasible_reason": "cycle"}
    base = {
        "feasible": True,
        "latency_ps": int(latency_us * 1e6),
        "latency_us": latency_us,
        "resources_used": resources,
        "mean_utilization": 0.5,
        "tdg_nodes": 20,
        "allocation": f"alloc-{latency_us}-{resources}",
    }
    base.update(extra)
    return base


class TestDominance:
    def test_strictly_better_dominates(self):
        assert dominates(metrics(10, 1), metrics(20, 2))

    def test_better_in_one_equal_in_other(self):
        assert dominates(metrics(10, 2), metrics(20, 2))
        assert dominates(metrics(10, 1), metrics(10, 2))

    def test_ties_and_trade_offs_do_not_dominate(self):
        assert not dominates(metrics(10, 2), metrics(10, 2))
        assert not dominates(metrics(10, 3), metrics(20, 2))
        assert not dominates(metrics(20, 2), metrics(10, 3))

    def test_missing_objective_counts_as_infinite(self):
        assert dominates(metrics(10, 2), {"feasible": True, "resources_used": 2})


class TestParetoFront:
    def test_keeps_trade_off_points_and_evicts_dominated(self):
        front = ParetoFront()
        assert front.offer("a", metrics(100, 4))
        assert front.offer("b", metrics(200, 2))  # trade-off: joins
        assert not front.offer("c", metrics(300, 4))  # dominated by a
        assert front.offer("d", metrics(50, 4))  # dominates and evicts a
        digests = [point.digest for point in front.points()]
        assert digests == ["d", "b"]
        assert "a" not in front and "d" in front
        assert len(front) == 2

    def test_objective_ties_keep_first_representative(self):
        front = ParetoFront()
        assert front.offer("first", metrics(100, 2))
        assert not front.offer("twin", metrics(100, 2))
        assert len(front) == 1

    def test_infeasible_never_joins(self):
        front = ParetoFront()
        assert not front.offer("bad", metrics(0, 0, feasible=False))
        assert len(front) == 0

    def test_reoffering_a_member_is_true(self):
        front = ParetoFront()
        front.offer("a", metrics(100, 2))
        assert front.offer("a", metrics(100, 2))

    def test_reoffering_refreshes_the_stored_metrics(self):
        front = ParetoFront()
        front.offer("a", metrics(100, 2))
        assert front.offer("a", metrics(100, 2, extra_key="fresh"))
        point = front.points()[0]
        assert point.metrics["extra_key"] == "fresh"

    def test_reoffering_with_changed_objectives_rejudges_the_point(self):
        # A digest re-offered with *different* objective values is a stale
        # front entry (e.g. the store was regenerated); it must be re-judged,
        # not blindly confirmed.
        front = ParetoFront()
        front.offer("a", metrics(100, 2))
        front.offer("b", metrics(50, 3))
        # 'a' re-evaluates to something dominated by 'b': it must drop off.
        assert not front.offer("a", metrics(60, 3))
        assert "a" not in front
        # ... and to something incomparable: it must re-join.
        assert front.offer("a", metrics(40, 4))
        assert "a" in front

    def test_offer_caches_the_objective_vector(self):
        front = ParetoFront()
        front.offer("a", metrics(100, 2))
        point = front.points()[0]
        assert point.vector == (100e6, 2.0)
        assert point.vector == objective_vector(point.metrics, DEFAULT_OBJECTIVES)

    def test_rows_are_sorted_by_first_objective(self):
        front = ParetoFront()
        front.offer("slow-cheap", metrics(300, 1))
        front.offer("fast-costly", metrics(100, 3))
        rows = front.rows()
        assert [row["latency (us)"] for row in rows] == [100, 300]
        assert rows[0]["status"] == "feasible"

    def test_custom_objectives(self):
        objectives = (Objective("latency_ps", "latency"), Objective("tdg_nodes", "nodes"))
        front = ParetoFront(objectives)
        front.offer("a", metrics(100, 1, tdg_nodes=30))
        assert front.offer("b", metrics(200, 9, tdg_nodes=10))  # fewer nodes: trade-off
        assert len(front) == 2


class TestRanking:
    def test_pareto_rank_peels_fronts(self):
        entries = [
            ("a", metrics(100, 4)),
            ("b", metrics(200, 2)),
            ("c", metrics(150, 4)),  # dominated by a only
            ("d", metrics(400, 4)),  # dominated by a and c
            ("x", metrics(0, 0, feasible=False)),
        ]
        ranks = {digest: rank for rank, digest, _ in pareto_rank(entries)}
        assert ranks == {"a": 1, "b": 1, "c": 2, "d": 3, "x": 0}

    def test_ranked_rows_order_and_top(self):
        entries = [
            ("worse", metrics(150, 4)),
            ("best", metrics(100, 4)),
            ("cheap", metrics(200, 2)),
            ("bad", metrics(0, 0, feasible=False)),
        ]
        rows = ranked_rows(entries)
        assert [row["candidate"] for row in rows] == ["best", "cheap", "worse", "bad"]
        assert rows[-1]["status"] == "cycle"
        assert rows[-1]["rank"] == "-"
        top = ranked_rows(entries, top=2)
        assert len(top) == 2
        assert top[0]["rank"] == 1

    def test_default_objectives_shape(self):
        assert [objective.key for objective in DEFAULT_OBJECTIVES] == [
            "latency_ps",
            "resources_used",
        ]

    def test_pareto_rank_empty_entries(self):
        assert pareto_rank([]) == []
        assert ranked_rows([]) == []

    def test_pareto_rank_all_infeasible(self):
        entries = [
            ("x", metrics(0, 0, feasible=False)),
            ("y", metrics(0, 0, feasible=False)),
        ]
        ranked = pareto_rank(entries)
        assert [rank for rank, _, _ in ranked] == [0, 0]
        rows = ranked_rows(entries)
        assert all(row["rank"] == "-" for row in rows)

    def test_exact_objective_ties_share_a_rank(self):
        # Identical vectors dominate neither way: they must land in the same
        # front, at every peel depth.
        entries = [
            ("a1", metrics(100, 2)),
            ("a2", metrics(100, 2)),
            ("b1", metrics(150, 2)),  # dominated by both a's
            ("b2", metrics(150, 2)),
        ]
        ranks = {digest: rank for rank, digest, _ in pareto_rank(entries)}
        assert ranks == {"a1": 1, "a2": 1, "b1": 2, "b2": 2}

    def test_ranked_rows_top_zero_is_empty(self):
        entries = [("a", metrics(100, 2))]
        assert ranked_rows(entries, top=0) == []
        assert len(ranked_rows(entries, top=None)) == 1


class TestVectorHelpers:
    def test_vector_dominates(self):
        assert vector_dominates((1.0, 2.0), (2.0, 2.0))
        assert not vector_dominates((1.0, 3.0), (2.0, 2.0))
        assert not vector_dominates((1.0, 2.0), (1.0, 2.0))

    def test_nondominated_rank_peels_fronts(self):
        vectors = [(1.0, 4.0), (2.0, 2.0), (2.0, 5.0), (3.0, 3.0), (4.0, 4.0)]
        assert nondominated_rank(vectors) == [1, 1, 2, 2, 3]

    def test_nondominated_rank_empty_and_ties(self):
        assert nondominated_rank([]) == []
        assert nondominated_rank([(1.0, 1.0), (1.0, 1.0)]) == [1, 1]

    def test_crowding_distance_boundaries_are_infinite(self):
        vectors = [(1.0, 5.0), (2.0, 4.0), (3.0, 3.0), (4.0, 2.0), (5.0, 1.0)]
        distances = crowding_distance(vectors)
        assert distances[0] == math.inf
        assert distances[-1] == math.inf
        # interior points: symmetric spread -> equal, finite distances
        assert all(math.isfinite(d) for d in distances[1:-1])
        assert distances[1] == distances[2] == distances[3]

    def test_crowding_distance_degenerate_sets(self):
        assert crowding_distance([]) == []
        assert crowding_distance([(1.0, 2.0)]) == [math.inf]
        # identical points: boundary picks are infinite, the rest stay 0
        distances = crowding_distance([(1.0, 1.0)] * 3)
        assert math.inf in distances

    def test_hypervolume_2d_rectangles(self):
        # one point: a single rectangle to the reference
        assert hypervolume_2d([(1.0, 1.0)], (3.0, 3.0)) == 4.0
        # staircase of two incomparable points
        assert hypervolume_2d([(1.0, 2.0), (2.0, 1.0)], (3.0, 3.0)) == 3.0
        # dominated point adds nothing
        assert hypervolume_2d([(1.0, 1.0), (2.0, 2.0)], (3.0, 3.0)) == 4.0
        # points at/beyond the reference contribute nothing
        assert hypervolume_2d([(3.0, 1.0)], (3.0, 3.0)) == 0.0
        assert hypervolume_2d([], (3.0, 3.0)) == 0.0

    def test_front_hypervolume_and_reference(self):
        front = ParetoFront()
        front.offer("a", metrics(100, 2))
        front.offer("b", metrics(200, 1))
        reference = front.reference_point()
        assert reference == (200e6 + 1.0, 3.0)
        assert front.hypervolume(reference) == front.hypervolume()
        assert front.hypervolume((300e6, 3.0)) > 0.0
        assert ParetoFront().hypervolume() == 0.0


def peeling_rank(vectors):
    """The reference: peel the non-dominated set off what remains, front by front."""
    ranks = [0] * len(vectors)
    remaining = list(range(len(vectors)))
    rank = 1
    while remaining:
        front = [
            i
            for i in remaining
            if not any(vector_dominates(vectors[j], vectors[i]) for j in remaining if j != i)
        ]
        for i in front:
            ranks[i] = rank
        remaining = [i for i in remaining if i not in front]
        rank += 1
    return ranks


#: Few distinct values, so exact duplicates, equal x with different y and
#: infinite coordinates turn up in most examples.
COORDINATE = st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, math.inf])
NAN_OR_COORDINATE = st.one_of(COORDINATE, st.just(math.nan))


class TestTwoObjectiveRank:
    """The O(n log n) two-objective sort against the peeling reference."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(COORDINATE, COORDINATE), max_size=24))
    def test_matches_the_peeling_reference(self, vectors):
        assert nondominated_rank(vectors) == peeling_rank(vectors)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)), max_size=24
        )
    )
    def test_matches_the_peeling_reference_on_any_floats(self, vectors):
        assert nondominated_rank(vectors) == peeling_rank(vectors)

    def test_edge_cases(self):
        inf = math.inf
        cases = [
            [],
            [(1.0, 2.0)],
            [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],  # exact duplicates
            [(1.0, 3.0), (1.0, 2.0), (1.0, 1.0)],  # equal x, different y
            [(3.0, 1.0), (2.0, 1.0), (1.0, 1.0)],  # equal y, different x
            [(2.0, 2.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (2.0, 3.0)],
            [(inf, inf), (-inf, inf), (inf, -inf), (-inf, -inf), (0.0, 0.0)],
            [(inf, 1.0), (inf, 1.0), (inf, 2.0), (1.0, inf)],
        ]
        for vectors in cases:
            assert nondominated_rank(vectors) == peeling_rank(vectors), vectors
        assert nondominated_rank([(1.0, 1.0), (1.0, 1.0), (1.0, 2.0)]) == [1, 1, 2]

    def test_two_objective_vectors_take_the_fast_path(self):
        vectors = [(2.0, 1.0), (1.0, 2.0), (2.0, 2.0)]
        with mock.patch.object(pareto, "_rank_2d", wraps=pareto._rank_2d) as fast:
            assert nondominated_rank(vectors) == [1, 1, 2]
        fast.assert_called_once()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(NAN_OR_COORDINATE, NAN_OR_COORDINATE), max_size=12))
    def test_nan_takes_the_general_path(self, vectors):
        vectors.append((math.nan, 0.0))
        with mock.patch.object(pareto, "_rank_2d", side_effect=AssertionError("fast path")):
            assert nondominated_rank(vectors) == peeling_rank(vectors)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(COORDINATE, COORDINATE, COORDINATE), min_size=1, max_size=16))
    def test_three_objectives_take_the_general_path(self, vectors):
        with mock.patch.object(pareto, "_rank_2d", side_effect=AssertionError("fast path")):
            ranks = nondominated_rank(vectors)
        assert ranks == peeling_rank(vectors)
