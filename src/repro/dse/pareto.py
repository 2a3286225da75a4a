"""Pareto-front tracking, front-quality metrics and ranked reporting.

Mapping DSE is inherently multi-objective: a candidate that halves
latency by instantiating twice the resources is neither better nor worse
than the frugal one -- it is *incomparable*.  This module keeps the set
of non-dominated candidates as evaluations stream in, quantifies front
quality (crowding distance, 2D hypervolume) for the population-based
strategies, and renders ranked tables in the shape
:func:`repro.analysis.report.format_rows` expects, like every other
report of the library.

Objectives are read from the JSON-safe ``metrics`` dict carried by
campaign results, so the front can be rebuilt from a result store alone
(see ``repro.cli dse front``).  The vector-level helpers
(:func:`vector_dominates`, :func:`nondominated_rank`,
:func:`crowding_distance`, :func:`hypervolume_2d`) work on plain float
tuples, which is what search strategies observe -- they never touch
metric dicts.

:func:`nondominated_rank` sorts the default two objectives exactly in
O(n log n) (Kung, Luccio & Preparata, JACM 1975; Jensen, IEEE TEC 2003)
and peels fronts in O(n^2 * fronts) for three or more objectives or any
NaN; both give the same ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Objective",
    "DEFAULT_OBJECTIVES",
    "dominates",
    "objective_vector",
    "vector_dominates",
    "nondominated_rank",
    "crowding_distance",
    "hypervolume_2d",
    "ParetoFront",
    "pareto_rank",
    "ranked_rows",
]


@dataclass(frozen=True)
class Objective:
    """One minimised objective read from a metrics dict.

    ``key`` is a flat metrics key, or a dotted path into nested metric dicts
    (``"kind_utilization.dsp"`` reads ``metrics["kind_utilization"]["dsp"]``)
    -- how per-kind objectives of heterogeneous problems are addressed.
    Missing values evaluate to ``+inf`` so such candidates never dominate.
    """

    key: str
    label: str

    def value(self, metrics: Mapping[str, Any]) -> float:
        value: Any = metrics.get(self.key)
        if value is None and "." in self.key:
            value = metrics
            for part in self.key.split("."):
                if not isinstance(value, Mapping):
                    value = None
                    break
                value = value.get(part)
        if value is None:
            return float("inf")
        return float(value)


#: The default latency-vs-cost trade-off of mapping exploration.
DEFAULT_OBJECTIVES: Tuple[Objective, ...] = (
    Objective("latency_ps", "latency"),
    Objective("resources_used", "resources"),
)


def objective_vector(
    metrics: Mapping[str, Any], objectives: Sequence[Objective] = DEFAULT_OBJECTIVES
) -> Tuple[float, ...]:
    """The metrics projected onto the chosen objectives (minimised, inf = missing)."""
    return tuple(objective.value(metrics) for objective in objectives)


def vector_dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better somewhere."""
    no_worse = all(x <= y for x, y in zip(a, b))
    better = any(x < y for x, y in zip(a, b))
    return no_worse and better


def dominates(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better somewhere."""
    return vector_dominates(objective_vector(a, objectives), objective_vector(b, objectives))


def nondominated_rank(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Non-dominated sorting of objective vectors: rank 1 is the Pareto front,
    rank 2 the front of what remains, and so on.

    Exact ties share a rank (neither dominates the other).  Two-objective
    vectors without NaN are ranked in O(n log n) by :func:`_rank_2d`;
    anything else is peeled front by front in O(n^2 * fronts), fine for the
    population sizes and candidate counts the evaluator sustains.
    """
    two_objectives = all(
        len(vector) == 2 and vector[0] == vector[0] and vector[1] == vector[1]
        for vector in vectors
    )
    if two_objectives:  # NaN != NaN, so any NaN takes the peeling loop
        return _rank_2d(vectors)
    ranks = [0] * len(vectors)
    remaining = list(range(len(vectors)))
    rank = 1
    while remaining:
        front = [
            i
            for i in remaining
            if not any(vector_dominates(vectors[j], vectors[i]) for j in remaining if j != i)
        ]
        if not front:  # pragma: no cover - dominance is irreflexive, cannot happen
            front = list(remaining)
        for i in front:
            ranks[i] = rank
        in_front = set(front)
        remaining = [i for i in remaining if i not in in_front]
        rank += 1
    return ranks


def _rank_2d(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Exact non-dominated ranks of NaN-free two-objective vectors.

    Visits the points in ascending ``(x, y)`` order, so every point that
    can dominate the current one has been placed already.  Each front keeps
    its last placed point, which has the front's largest x and smallest y:
    the front holds a dominator of the current point exactly when that last
    point dominates it.  The fronts holding a dominator form a prefix (each
    member of a front is dominated by a member of every earlier front, and
    dominance is transitive), so a binary search over the last points finds
    the point's rank.
    """
    ranks = [0] * len(vectors)
    last_x: List[float] = []
    last_y: List[float] = []
    for index in sorted(range(len(vectors)), key=lambda i: (vectors[i][0], vectors[i][1])):
        x, y = vectors[index][0], vectors[index][1]
        low, high = 0, len(last_y)
        while low < high:
            middle = (low + high) // 2
            # Sorted order gives last_x[middle] <= x: the last point
            # dominates unless it is an exact duplicate or has a larger y.
            if last_y[middle] < y or (last_y[middle] == y and last_x[middle] != x):
                low = middle + 1
            else:
                high = middle
        if low == len(last_y):
            last_x.append(x)
            last_y.append(y)
        else:
            last_x[low] = x
            last_y[low] = y
        ranks[index] = low + 1
    return ranks


def crowding_distance(vectors: Sequence[Sequence[float]]) -> List[float]:
    """NSGA-II crowding distance of each vector within the given set.

    Boundary points of every objective get infinite distance; interior points
    accumulate the normalised gap between their neighbours per objective.
    Callers rank *within one front*; mixing fronts skews the normalisation.
    """
    count = len(vectors)
    if count == 0:
        return []
    distance = [0.0] * count
    for axis in range(len(vectors[0])):
        order = sorted(range(count), key=lambda i: vectors[i][axis])
        low, high = vectors[order[0]][axis], vectors[order[-1]][axis]
        distance[order[0]] = distance[order[-1]] = math.inf
        span = high - low
        if span <= 0 or not math.isfinite(span):
            continue
        for position in range(1, count - 1):
            gap = vectors[order[position + 1]][axis] - vectors[order[position - 1]][axis]
            if math.isfinite(gap):
                distance[order[position]] += gap / span
    return distance


def hypervolume_2d(
    vectors: Sequence[Sequence[float]], reference: Sequence[float]
) -> float:
    """Hypervolume (area) dominated by 2D minimisation vectors w.r.t. ``reference``.

    Only points strictly better than the reference in both objectives
    contribute; dominated points add nothing.  Hypervolume is the standard
    front-quality scalar -- a front that is wider *or* closer to the ideal
    point has a larger value, so strategies can be compared on it under an
    equal budget.
    """
    if len(reference) != 2:
        raise ValueError("hypervolume_2d needs exactly two objectives")
    ref_x, ref_y = float(reference[0]), float(reference[1])
    points = sorted(
        {(float(x), float(y)) for x, y in vectors if x < ref_x and y < ref_y}
    )
    volume = 0.0
    last_y = ref_y
    for x, y in points:  # ascending x: keep the skyline of strictly improving y
        if y < last_y:
            volume += (ref_x - x) * (last_y - y)
            last_y = y
    return volume


@dataclass(frozen=True)
class FrontPoint:
    """One non-dominated candidate: digest, metrics, cached vector, free payload."""

    digest: str
    metrics: Mapping[str, Any]
    #: The point's objective values, computed once at offer time -- dominance
    #: checks against the front compare cached vectors, never re-read metrics.
    vector: Tuple[float, ...]
    payload: Any = None


class ParetoFront:
    """Streaming non-dominated set over the chosen objectives.

    Infeasible evaluations (``metrics['feasible']`` false) never enter the
    front.  Offering a point dominated by the current front returns False;
    offering a dominating point evicts everything it dominates.  Each stored
    point caches its objective vector, so an offer costs one vector
    computation plus O(front) comparisons of cached tuples.
    """

    def __init__(self, objectives: Sequence[Objective] = DEFAULT_OBJECTIVES) -> None:
        self.objectives = tuple(objectives)
        self._points: Dict[str, FrontPoint] = {}

    def offer(self, digest: str, metrics: Mapping[str, Any], payload: Any = None) -> bool:
        """Consider one evaluation; returns True when it (still) is on the front.

        Re-offering a digest already on the front verifies the stored point:
        identical objectives refresh the stored metrics/payload; changed
        objectives (a re-evaluation under different conditions) evict the
        stale point and judge the new vector like any fresh offer.
        """
        if not metrics.get("feasible", True):
            return False
        vector = objective_vector(metrics, self.objectives)
        existing = self._points.get(digest)
        if existing is not None:
            if existing.vector == vector:
                # Same point, possibly richer metrics: refresh in place.
                self._points[digest] = FrontPoint(digest, dict(metrics), vector, payload)
                return True
            del self._points[digest]  # stale objectives: re-judge from scratch
        for point in self._points.values():
            if vector_dominates(point.vector, vector):
                return False
            if point.vector == vector:
                return False  # objective tie: keep the first-seen representative
        dominated = [
            existing_digest
            for existing_digest, point in self._points.items()
            if vector_dominates(vector, point.vector)
        ]
        for existing_digest in dominated:
            del self._points[existing_digest]
        self._points[digest] = FrontPoint(digest, dict(metrics), vector, payload)
        return True

    def points(self) -> List[FrontPoint]:
        """Front points sorted by the cached objective vector (ascending)."""
        return sorted(self._points.values(), key=lambda point: point.vector)

    def digests(self) -> List[str]:
        """Digests of the front points, in :meth:`points` order."""
        return [point.digest for point in self.points()]

    def vectors(self) -> List[Tuple[float, ...]]:
        """Cached objective vectors, in :meth:`points` order."""
        return [point.vector for point in self.points()]

    def reference_point(self, margin: float = 1.0) -> Optional[Tuple[float, ...]]:
        """Nadir of the front plus ``margin`` per objective (None when empty).

        A front-derived reference makes the reported hypervolume
        self-contained; comparing two fronts requires computing both volumes
        against one *shared* reference (e.g. the nadir of their union).
        """
        vectors = [v for v in self.vectors() if all(math.isfinite(x) for x in v)]
        if not vectors:
            return None
        return tuple(
            max(vector[axis] for vector in vectors) + margin
            for axis in range(len(self.objectives))
        )

    def hypervolume(self, reference: Optional[Sequence[float]] = None) -> float:
        """2D hypervolume of the front (0.0 when empty).

        Only defined for two-objective fronts; asking a front with another
        arity raises instead of degenerating to a silent 0.0 that would make
        every quality comparison vacuously true.  Without an explicit
        ``reference`` the front's own :meth:`reference_point` is used, so
        boundary points contribute the ``margin`` sliver and the value is
        comparable across runs on the same problem only when passed a shared
        reference.
        """
        if len(self.objectives) != 2:
            raise ValueError(
                f"hypervolume is only defined for two-objective fronts; this "
                f"front has {len(self.objectives)} objectives "
                "(see hypervolume_text() for display purposes)"
            )
        if not self._points:
            return 0.0
        if reference is None:
            reference = self.reference_point()
        if reference is None:
            return 0.0
        return hypervolume_2d(self.vectors(), reference)

    def hypervolume_text(self) -> str:
        """The 2D hypervolume rendered for summaries, or an honest ``n/a``.

        :meth:`hypervolume` silently returns 0.0 for fronts that are not
        two-objective; reports must not present that as a measured quality
        of e.g. a 3-objective heterogeneous front.
        """
        if len(self.objectives) != 2:
            return f"n/a ({len(self.objectives)} objectives)"
        return f"{self.hypervolume():.6g}"

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, digest: str) -> bool:
        return digest in self._points

    def rows(self) -> List[Dict[str, object]]:
        """Table rows of the front, ready for ``format_rows``."""
        return [
            _row(index + 1, point.digest, point.metrics, self.objectives)
            for index, point in enumerate(self.points())
        ]

    def __repr__(self) -> str:
        return f"ParetoFront(points={len(self._points)}, objectives={len(self.objectives)})"


def pareto_rank(
    entries: Sequence[Tuple[str, Mapping[str, Any]]],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
) -> List[Tuple[int, str, Mapping[str, Any]]]:
    """Non-dominated sorting: rank 1 is the front, rank 2 the front without it, ...

    Infeasible entries get rank 0 (reported last).  Objective vectors are
    computed once per entry and ranked with :func:`nondominated_rank`.
    """
    feasible = [(d, m) for d, m in entries if m.get("feasible", True)]
    infeasible = [(d, m) for d, m in entries if not m.get("feasible", True)]
    vectors = [objective_vector(metrics, objectives) for _, metrics in feasible]
    ranks = nondominated_rank(vectors)
    ranked: List[Tuple[int, str, Mapping[str, Any]]] = []
    for rank in sorted(set(ranks)):
        ranked.extend(
            (rank, digest, metrics)
            for (digest, metrics), entry_rank in zip(feasible, ranks)
            if entry_rank == rank
        )
    ranked.extend((0, digest, metrics) for digest, metrics in infeasible)
    return ranked


def _extra_objectives(objectives: Sequence[Objective]) -> List[Objective]:
    """The objectives beyond the standard table columns (latency, resources)."""
    return [
        objective
        for objective in objectives
        if objective.key not in ("latency_ps", "resources_used")
    ]


def _row(
    rank: object,
    digest: str,
    metrics: Mapping[str, Any],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
) -> Dict[str, object]:
    extras = _extra_objectives(objectives)
    if not metrics.get("feasible", True):
        row: Dict[str, object] = {
            "rank": "-",
            "candidate": digest[:12],
            "allocation": "-",
            "latency (us)": "-",
            "resources": "-",
            "mean util": "-",
        }
        for objective in extras:
            row[objective.label] = "-"
        row["TDG nodes"] = "-"
        row["status"] = metrics.get("infeasible_reason", "infeasible")
        return row
    row = {
        "rank": rank,
        "candidate": digest[:12],
        "allocation": metrics.get("allocation", "?"),
        "latency (us)": round(float(metrics.get("latency_us", 0.0)), 2),
        "resources": metrics.get("resources_used", "-"),
        "mean util": metrics.get("mean_utilization", "-"),
    }
    # A front trading on extra axes (e.g. the lte problem's per-kind DSP
    # utilisation) must show them: rank-1 points differing only there would
    # otherwise look identical in the table.
    for objective in extras:
        value = objective.value(metrics)
        row[objective.label] = round(value, 4) if math.isfinite(value) else "-"
    row["TDG nodes"] = metrics.get("tdg_nodes", "-")
    row["status"] = "feasible"
    return row


def ranked_rows(
    entries: Sequence[Tuple[str, Mapping[str, Any]]],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
    top: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Ranked table over all evaluations (rank 1 = Pareto-optimal), best first."""
    ranked = pareto_rank(entries, objectives)
    feasible = [(r, d, m) for r, d, m in ranked if r > 0]
    infeasible = [(r, d, m) for r, d, m in ranked if r == 0]
    feasible.sort(key=lambda entry: (entry[0], objective_vector(entry[2], objectives)))
    rows = [_row(rank, digest, metrics, objectives) for rank, digest, metrics in feasible]
    rows.extend(
        _row(rank, digest, metrics, objectives) for rank, digest, metrics in infeasible
    )
    if top is not None:
        rows = rows[:top]
    return rows
