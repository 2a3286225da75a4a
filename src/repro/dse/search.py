"""Search strategies over the mapping design space.

Strategies are *batch* proposers: each round they propose a list of
candidates, the explorer evaluates the batch (served from the result
store where possible, the rest as one compiled array sweep over the
whole generation -- see :mod:`repro.dse.engine`) and feeds the scored
**objective vectors** back through :meth:`SearchStrategy.observe` in a
single generation-batched call.  This shape keeps every strategy trivially parallelisable and -- because
proposals depend only on the seeded RNG and on previously observed
vectors, never on wall-clock time -- deterministic under a fixed seed.

Three API properties shape everything here:

* **multi-objective feedback**: strategies observe
  :class:`Observation` values -- ``(candidate, objective vector,
  feasible)`` -- projected through the explorer's
  :class:`~repro.dse.pareto.Objective` tuple.  No strategy reads metric
  dicts or hard-codes metric keys; a strategy that needs a scalar applies
  a pluggable :class:`Scalarization` policy (weighted sum or
  epsilon-constraint) to the vector;
* **checkpointable state**: every strategy implements
  :meth:`SearchStrategy.state` / :meth:`SearchStrategy.restore` with
  JSON-safe payloads (RNG state, current point, temperature, population,
  enumeration cursor), so an exploration interrupted at a round boundary
  resumes bit-identically (see :mod:`repro.dse.checkpoint`);
* **population search**: :class:`NsgaSearch` runs an NSGA-II-style loop
  (non-dominated sorting + crowding-distance selection, allocation/order
  crossover via :meth:`~repro.dse.space.DesignSpace.crossover`, mutation
  via :meth:`~repro.dse.space.DesignSpace.mutate`) that explores the
  whole front instead of a single trade-off ray.

Shipped strategies:

* :class:`ExhaustiveSearch` -- walk the whole space in enumeration order
  (small spaces, ground truth for the others);
* :class:`RandomSearch` -- seeded uniform sampling;
* :class:`AnnealingSearch` -- greedy local search with simulated-annealing
  acceptance over the scalarised objective vector;
* :class:`NsgaSearch` -- NSGA-II-style population search.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

from .. import telemetry
from ..errors import ModelError
from .pareto import DEFAULT_OBJECTIVES, Objective, crowding_distance, nondominated_rank
from .space import DesignSpace, MappingCandidate

__all__ = [
    "Observation",
    "Scalarization",
    "WeightedSum",
    "EpsilonConstraint",
    "make_scalarization",
    "SearchStrategy",
    "ExhaustiveSearch",
    "RandomSearch",
    "AnnealingSearch",
    "NsgaSearch",
    "make_strategy",
    "strategy_options",
    "STRATEGY_NAMES",
]


@dataclass(frozen=True)
class Observation:
    """One scored candidate as a strategy sees it: an objective vector.

    ``vector`` holds the candidate's objective values (minimised, one per
    explorer objective, ``inf`` for a missing metric); ``feasible`` is the
    evaluator's verdict.  Strategies never see the underlying metrics dict.
    """

    candidate: MappingCandidate
    vector: Tuple[float, ...]
    feasible: bool = True


# ----------------------------------------------------------------------
# scalarisation policies
# ----------------------------------------------------------------------
class Scalarization:
    """Reduce an objective vector to one minimised scalar (inf = rejected)."""

    policy = "base"

    def __call__(self, vector: Sequence[float], feasible: bool = True) -> float:
        raise NotImplementedError

    def spec(self) -> Dict[str, Any]:
        """JSON-safe description, re-instantiable via :func:`make_scalarization`."""
        raise NotImplementedError


class WeightedSum(Scalarization):
    """``sum(w_i * v_i)`` -- the classic fixed trade-off ray.

    ``weights=None`` means unit weights over however many objectives the
    vector carries.  Infeasible vectors scalarise to ``inf``.
    """

    policy = "weighted-sum"

    def __init__(self, weights: Optional[Sequence[float]] = None) -> None:
        self.weights = tuple(float(weight) for weight in weights) if weights is not None else None

    def __call__(self, vector: Sequence[float], feasible: bool = True) -> float:
        if not feasible:
            return math.inf
        weights = self.weights
        if weights is None:
            weights = (1.0,) * len(vector)
        if len(weights) != len(vector):
            raise ModelError(
                f"weighted-sum scalarisation has {len(weights)} weight(s) for a "
                f"{len(vector)}-objective vector"
            )
        return sum(weight * value for weight, value in zip(weights, vector))

    def spec(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "weights": list(self.weights) if self.weights is not None else None,
        }


class EpsilonConstraint(Scalarization):
    """Minimise one primary objective subject to bounds on the others.

    ``bounds`` maps objective indices to upper bounds; a vector exceeding any
    bound (or infeasible) scalarises to ``inf``.  This walks the front by
    *constraint*, complementing the weighted sum's walk by *slope* -- the two
    standard scalarisation families of multi-objective optimisation.
    """

    policy = "epsilon-constraint"

    def __init__(
        self, primary: int = 0, bounds: Optional[Mapping[Union[int, str], float]] = None
    ) -> None:
        self.primary = int(primary)
        # JSON object keys arrive as strings; accept both spellings.
        self.bounds = {int(index): float(bound) for index, bound in (bounds or {}).items()}

    def __call__(self, vector: Sequence[float], feasible: bool = True) -> float:
        if not feasible:
            return math.inf
        if not 0 <= self.primary < len(vector):
            raise ModelError(
                f"epsilon-constraint primary objective {self.primary} is out of range "
                f"for a {len(vector)}-objective vector"
            )
        for index, bound in self.bounds.items():
            if index == self.primary:
                continue
            if not 0 <= index < len(vector):
                raise ModelError(
                    f"epsilon-constraint bound on objective {index} is out of range "
                    f"for a {len(vector)}-objective vector"
                )
            if vector[index] > bound:
                return math.inf
        return float(vector[self.primary])

    def spec(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "primary": self.primary,
            "bounds": {str(index): bound for index, bound in self.bounds.items()},
        }


_SCALARIZATIONS: Dict[str, Type[Scalarization]] = {
    WeightedSum.policy: WeightedSum,
    EpsilonConstraint.policy: EpsilonConstraint,
}


def make_scalarization(
    spec: Union[None, str, Mapping[str, Any], Scalarization]
) -> Scalarization:
    """Instantiate a scalarisation policy from a JSON-safe spec.

    Accepts an instance (returned as-is), a policy name (default options), or
    a dict ``{"policy": name, ...options}`` -- the shape carried in strategy
    options and checkpoints.  ``None`` means unit-weight :class:`WeightedSum`.
    """
    if spec is None:
        return WeightedSum()
    if isinstance(spec, Scalarization):
        return spec
    if isinstance(spec, str):
        name, options = spec, {}
    else:
        options = dict(spec)
        name = options.pop("policy", None)
        if name is None:
            raise ModelError("a scalarisation spec dict needs a 'policy' key")
    try:
        cls = _SCALARIZATIONS[name]
    except KeyError:
        known = ", ".join(sorted(_SCALARIZATIONS))
        raise ModelError(
            f"unknown scalarisation policy {name!r}; known policies: {known}"
        ) from None
    try:
        return cls(**options)
    except (TypeError, ValueError) as error:
        # TypeError: unknown option names; ValueError: malformed values (e.g.
        # a non-numeric weight or a non-integer objective index).
        raise ModelError(f"invalid options for scalarisation {name!r}: {error}") from None


# ----------------------------------------------------------------------
# JSON-safe state helpers
# ----------------------------------------------------------------------
def _rng_state(rng: random.Random) -> List[Any]:
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def _restore_rng(rng: random.Random, state: Sequence[Any]) -> None:
    try:
        version, internal, gauss_next = state
        rng.setstate((version, tuple(internal), gauss_next))
    except (TypeError, ValueError) as error:
        raise ModelError(f"corrupt RNG state in strategy checkpoint: {error}") from None


def _candidate_state(candidate: Optional[MappingCandidate]) -> Optional[Dict[str, Any]]:
    return None if candidate is None else candidate.to_parameters()


def _candidate_from_state(state: Optional[Mapping[str, Any]]) -> Optional[MappingCandidate]:
    return None if state is None else MappingCandidate.from_parameters(state)


def _score_state(score: float) -> Optional[float]:
    # math.inf round-trips through python's json, but stays out of the strict
    # JSON grammar; None is the portable spelling of "no score yet".
    return None if math.isinf(score) else score


def _score_from_state(state: Optional[float]) -> float:
    return math.inf if state is None else float(state)


class SearchStrategy:
    """Base class: propose a batch, observe its objective vectors, repeat.

    Every strategy is constructed from ``(space, objectives, seed, options)``
    and must round-trip through :meth:`state` / :meth:`restore`: restoring the
    state captured at a round boundary into a freshly constructed strategy
    (same constructor arguments) continues the identical proposal stream.
    """

    name = "base"

    def __init__(
        self, space: DesignSpace, objectives: Sequence[Objective] = DEFAULT_OBJECTIVES
    ) -> None:
        self.space = space
        self.objectives = tuple(objectives)

    def propose(self, budget_left: int) -> List[MappingCandidate]:
        """The next batch of candidates (may repeat already-seen ones)."""
        raise NotImplementedError

    def observe(self, observations: Sequence[Observation]) -> None:
        """Feed back the objective vectors of the batch just proposed.

        Observations arrive *generation-batched*: the explorer scores one
        whole proposal batch (one compiled array sweep when the batch
        engine applies, see :mod:`repro.dse.engine`) and feeds the vectors
        back in a single call.  The base implementation records that batch
        shape -- ``dse.search.<name>.observed`` and the
        ``dse.search.generation_size`` gauge -- so overriding strategies
        must call ``super().observe(observations)`` first.
        """
        telemetry.count(f"dse.search.{self.name}.observed", len(observations))
        telemetry.gauge("dse.search.generation_size", len(observations))

    def _count_proposals(self, batch: Sequence[MappingCandidate]) -> None:
        """Per-strategy proposal telemetry (called by each ``propose``)."""
        telemetry.count(f"dse.search.{self.name}.proposals", len(batch))

    @property
    def exhausted(self) -> bool:
        """True when the strategy has nothing left to propose."""
        return False

    # -- checkpointing -----------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """JSON-safe snapshot of everything :meth:`restore` needs."""
        return {"strategy": self.name}

    def restore(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state` snapshot (constructor arguments must match)."""
        self._check_state(state)

    def _check_state(self, state: Mapping[str, Any]) -> None:
        found = state.get("strategy")
        if found != self.name:
            raise ModelError(
                f"checkpointed strategy state is for {found!r}, not {self.name!r}"
            )


class ExhaustiveSearch(SearchStrategy):
    """Enumerate every candidate of the space, in deterministic order."""

    name = "exhaustive"

    def __init__(
        self,
        space: DesignSpace,
        objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
        batch_size: int = 32,
    ) -> None:
        super().__init__(space, objectives)
        self.batch_size = batch_size
        self._iterator = space.enumerate_candidates()
        self._cursor = 0
        self._exhausted = False

    def propose(self, budget_left: int) -> List[MappingCandidate]:
        batch: List[MappingCandidate] = []
        want = min(self.batch_size, budget_left)
        while len(batch) < want:
            try:
                batch.append(next(self._iterator))
            except StopIteration:
                self._exhausted = True
                break
            self._cursor += 1
        self._count_proposals(batch)
        return batch

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def state(self) -> Dict[str, Any]:
        return {"strategy": self.name, "cursor": self._cursor, "exhausted": self._exhausted}

    def restore(self, state: Mapping[str, Any]) -> None:
        self._check_state(state)
        cursor = int(state["cursor"])
        self._iterator = self.space.enumerate_candidates()
        self._cursor = 0
        self._exhausted = bool(state["exhausted"])
        # Enumeration order is deterministic: replaying the cursor restores the
        # exact position without persisting any candidate.
        for _ in range(cursor):
            try:
                next(self._iterator)
            except StopIteration:
                self._exhausted = True
                break
            self._cursor += 1
        if self._cursor != cursor:
            raise ModelError(
                f"exhaustive cursor {cursor} exceeds the space "
                f"({self._cursor} candidates); the checkpoint belongs to a "
                "different problem or parameters"
            )


class RandomSearch(SearchStrategy):
    """Seeded uniform sampling of the space."""

    name = "random"

    def __init__(
        self,
        space: DesignSpace,
        objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
        seed: int = 0,
        batch_size: int = 32,
    ) -> None:
        super().__init__(space, objectives)
        self.batch_size = batch_size
        self._rng = random.Random(seed)

    def propose(self, budget_left: int) -> List[MappingCandidate]:
        want = min(self.batch_size, budget_left)
        batch = [self.space.random_candidate(self._rng) for _ in range(want)]
        self._count_proposals(batch)
        return batch

    def state(self) -> Dict[str, Any]:
        return {"strategy": self.name, "rng": _rng_state(self._rng)}

    def restore(self, state: Mapping[str, Any]) -> None:
        self._check_state(state)
        _restore_rng(self._rng, state["rng"])


#: The historical annealing trade-off ray for the default (latency_ps,
#: resources_used) objectives: 100 us of latency per extra resource.
DEFAULT_ANNEALING_WEIGHTS: Tuple[float, ...] = (1.0, 100_000_000.0)


class AnnealingSearch(SearchStrategy):
    """Local search with simulated-annealing acceptance.

    Each round proposes ``neighbors_per_round`` single-move neighbours of the
    current candidate.  The minimised scalar is the observed objective vector
    reduced by the ``scalarization`` policy (infeasible candidates score
    infinite); the best neighbour is accepted when it improves, or with the
    Metropolis probability ``exp(-delta / temperature)`` otherwise, and the
    temperature decays geometrically every round.

    With the default objectives and no explicit policy the scalar reproduces
    the historical ``latency + 100 us x resources`` ray
    (:data:`DEFAULT_ANNEALING_WEIGHTS`) and ``initial_temperature_us`` is
    converted to the ray's picosecond score scale; pass ``scalarization=`` a
    :class:`Scalarization`, a policy name or a JSON-safe spec dict (e.g.
    ``{"policy": "epsilon-constraint", "primary": 0, "bounds": {"1": 2}}``)
    to explore a different slice of the front -- a custom policy (or custom
    objectives) defines its own score scale, so ``initial_temperature_us`` is
    then used directly in score units (the conservative default of 200 makes
    the walk near-greedy for large-valued scores; raise it to anneal).
    """

    name = "annealing"

    def __init__(
        self,
        space: DesignSpace,
        objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
        seed: int = 0,
        neighbors_per_round: int = 8,
        scalarization: Union[None, str, Mapping[str, Any], Scalarization] = None,
        initial_temperature_us: float = 200.0,
        cooling: float = 0.9,
    ) -> None:
        super().__init__(space, objectives)
        # The historical ray only makes sense for the objectives it was tuned
        # for -- matching on identity, not arity, keeps e.g. a custom
        # (latency, utilization) pair from being scaled by 1e8.
        default_ray = scalarization is None and self.objectives == DEFAULT_OBJECTIVES
        if default_ray:
            scalarization = WeightedSum(DEFAULT_ANNEALING_WEIGHTS)
        self.scalarization = make_scalarization(scalarization)
        # Probe once with a zero vector so mis-sized weights or out-of-range
        # constraint indices fail here, not after the first evaluated batch.
        self.scalarization(tuple(0.0 for _ in self.objectives), True)
        self._rng = random.Random(seed)
        self.neighbors_per_round = neighbors_per_round
        # Temperatures are in scalarised-score units.  The default ray is
        # picosecond-valued, hence the microsecond-to-ps conversion; a custom
        # scalarisation (or custom objectives) defines its own score scale, so
        # the caller's value is used directly there.
        self.temperature = initial_temperature_us * 1e6 if default_ray else initial_temperature_us
        self.cooling = cooling
        self._current: Optional[MappingCandidate] = None
        self._current_score = math.inf

    def scalarize(self, observation: Observation) -> float:
        """Scalarised cost of one observation (lower is better, infeasible = inf)."""
        return self.scalarization(observation.vector, observation.feasible)

    def propose(self, budget_left: int) -> List[MappingCandidate]:
        if self._current is None:
            # Seed the walk with the default candidate plus random restarts.
            batch = [self.space.default_candidate()]
            while len(batch) < min(self.neighbors_per_round, budget_left):
                batch.append(self.space.random_candidate(self._rng))
        else:
            batch = self.space.neighbors(
                self._current, self._rng, min(self.neighbors_per_round, budget_left)
            )
        self._count_proposals(batch)
        return batch

    def observe(self, observations: Sequence[Observation]) -> None:
        super().observe(observations)
        best: Optional[Tuple[MappingCandidate, float]] = None
        for observation in observations:
            value = self.scalarize(observation)
            if best is None or value < best[1]:
                best = (observation.candidate, value)
        # math.isinf, not an identity check: an infinity *computed* from the
        # vector (e.g. float("inf") latency) is not the math.inf singleton,
        # and an all-infeasible round must never become the current point.
        if best is None or math.isinf(best[1]):
            telemetry.count("dse.search.annealing.dead_rounds")
            self.temperature *= self.cooling
            return
        candidate, value = best
        if value <= self._current_score:
            self._current, self._current_score = candidate, value
            telemetry.count("dse.search.annealing.accepted")
        else:
            delta = value - self._current_score
            if self.temperature > 0 and self._rng.random() < math.exp(
                -delta / self.temperature
            ):
                self._current, self._current_score = candidate, value
                telemetry.count("dse.search.annealing.uphill_accepted")
            else:
                telemetry.count("dse.search.annealing.rejected")
        self.temperature *= self.cooling

    def state(self) -> Dict[str, Any]:
        return {
            "strategy": self.name,
            "rng": _rng_state(self._rng),
            "temperature": self.temperature,
            "current": _candidate_state(self._current),
            "current_score": _score_state(self._current_score),
            "scalarization": self.scalarization.spec(),
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        self._check_state(state)
        _restore_rng(self._rng, state["rng"])
        self.temperature = float(state["temperature"])
        self._current = _candidate_from_state(state["current"])
        self._current_score = _score_from_state(state["current_score"])
        self.scalarization = make_scalarization(state.get("scalarization"))


class NsgaSearch(SearchStrategy):
    """NSGA-II-style population search over the objective vectors.

    The first round seeds the population with the default candidate plus
    random samples.  Every later round breeds ``population_size`` offspring by
    binary tournament on ``(non-domination rank, crowding distance)``,
    allocation/order crossover (:meth:`~repro.dse.space.DesignSpace.crossover`)
    and mutation (:meth:`~repro.dse.space.DesignSpace.mutate`); observed
    feasible candidates merge into the population, which is truncated back to
    ``population_size`` by non-dominated sorting with crowding-distance
    tie-breaking on the boundary front -- the environmental selection of
    NSGA-II.  The population approximates the whole Pareto front instead of
    following one scalarised ray.
    """

    name = "nsga2"

    def __init__(
        self,
        space: DesignSpace,
        objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
        seed: int = 0,
        population_size: int = 16,
        crossover_rate: float = 0.9,
        mutation_rate: float = 0.3,
    ) -> None:
        super().__init__(space, objectives)
        if population_size < 2:
            raise ModelError("nsga2 needs a population of at least two candidates")
        self._rng = random.Random(seed)
        self.population_size = population_size
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        #: Evaluated survivors: ``(candidate, objective vector)`` pairs.
        self._population: List[Tuple[MappingCandidate, Tuple[float, ...]]] = []
        #: Each member's non-domination rank, kept by a truncating
        #: :meth:`observe` (survivors keep their rank); None lets
        #: :meth:`propose` rank the population itself.  Never checkpointed.
        self._ranks: Optional[List[int]] = None
        self._generation = 0

    # -- selection machinery -----------------------------------------------------
    @staticmethod
    def _fronts(ranks: Sequence[int]) -> Dict[int, List[int]]:
        """Member indices (ascending) grouped by non-domination rank, ranks ascending."""
        members_by_rank: Dict[int, List[int]] = {}
        for index, rank in enumerate(ranks):
            members_by_rank.setdefault(rank, []).append(index)
        return {rank: members_by_rank[rank] for rank in sorted(members_by_rank)}

    def _ranked(self) -> Tuple[List[int], List[float]]:
        """Per-member (non-domination rank, within-front crowding distance).

        Crowding is computed within each front over its members in
        ascending population index, so ties break the same way whether the
        ranks were kept by :meth:`observe` or computed here.
        """
        vectors = [vector for _, vector in self._population]
        ranks = self._ranks if self._ranks is not None else nondominated_rank(vectors)
        crowding = [0.0] * len(vectors)
        for members in self._fronts(ranks).values():
            for index, distance in zip(
                members, crowding_distance([vectors[i] for i in members])
            ):
                crowding[index] = distance
        return ranks, crowding

    def _tournament(self, ranks: List[int], crowding: List[float]) -> int:
        first = self._rng.randrange(len(self._population))
        second = self._rng.randrange(len(self._population))
        if (ranks[first], -crowding[first]) <= (ranks[second], -crowding[second]):
            return first
        return second

    def propose(self, budget_left: int) -> List[MappingCandidate]:
        want = min(self.population_size, budget_left)
        if not self._population:
            batch = [self.space.default_candidate()]
            while len(batch) < want:
                batch.append(self.space.random_candidate(self._rng))
            batch = batch[:want]
            self._count_proposals(batch)
            return batch
        ranks, crowding = self._ranked()
        known = {candidate.digest() for candidate, _ in self._population}
        batch: List[MappingCandidate] = []
        for _ in range(want):
            child: Optional[MappingCandidate] = None
            # Converged populations breed mostly duplicates; retry a few times
            # and fall back to a random immigrant so the budget keeps buying
            # novel candidates instead of stalling the exploration.
            for _attempt in range(4):
                trial = self._breed(ranks, crowding)
                if trial.digest() not in known:
                    child = trial
                    break
            if child is None:
                telemetry.count("dse.search.nsga2.immigrants")
                child = self.space.random_candidate(self._rng)
            known.add(child.digest())
            batch.append(child)
        self._count_proposals(batch)
        return batch

    def _breed(self, ranks: List[int], crowding: List[float]) -> MappingCandidate:
        """One offspring: tournament parents, crossover, mutation."""
        first = self._tournament(ranks, crowding)
        if len(self._population) >= 2 and self._rng.random() < self.crossover_rate:
            second = self._tournament(ranks, crowding)
            child = self.space.crossover(
                self._population[first][0], self._population[second][0], self._rng
            )
            if self._rng.random() < self.mutation_rate:
                child = self.space.mutate(child, self._rng)
            return child
        # Cloning a member would re-propose it verbatim; mutation keeps the
        # non-crossover path exploring.
        return self.space.mutate(self._population[first][0], self._rng)

    def observe(self, observations: Sequence[Observation]) -> None:
        super().observe(observations)
        merged: Dict[str, Tuple[MappingCandidate, Tuple[float, ...]]] = {}
        for candidate, vector in self._population:
            merged[candidate.digest()] = (candidate, vector)
        for observation in observations:
            if not observation.feasible:
                continue
            merged.setdefault(
                observation.candidate.digest(),
                (observation.candidate, tuple(observation.vector)),
            )
        entries = list(merged.values())
        ranks: Optional[List[int]] = None
        if len(entries) > self.population_size:
            vectors = [vector for _, vector in entries]
            merged_ranks = nondominated_rank(vectors)
            selected: List[int] = []
            for members in self._fronts(merged_ranks).values():
                room = self.population_size - len(selected)
                if room <= 0:
                    break
                if len(members) <= room:
                    selected.extend(members)
                    continue
                # Boundary front: keep the most spread-out members.  Sorting on
                # (-distance, index) makes ties deterministic.
                distances = crowding_distance([vectors[i] for i in members])
                by_spread = sorted(
                    zip(members, distances), key=lambda pair: (-pair[1], pair[0])
                )
                selected.extend(index for index, _ in by_spread[:room])
            entries = [entries[index] for index in selected]
            # Survivors keep their rank: the fronts below the boundary survive
            # whole, so every dominator of a survivor survives too.
            ranks = [merged_ranks[index] for index in selected]
        self._population = entries
        self._ranks = ranks
        self._generation += 1
        telemetry.gauge("dse.search.nsga2.generation", self._generation)
        telemetry.gauge("dse.search.nsga2.population", len(entries))

    @property
    def generation(self) -> int:
        return self._generation

    def population(self) -> List[Tuple[MappingCandidate, Tuple[float, ...]]]:
        """The current evaluated population (a copy)."""
        return list(self._population)

    def state(self) -> Dict[str, Any]:
        return {
            "strategy": self.name,
            "rng": _rng_state(self._rng),
            "generation": self._generation,
            "population": [
                {"candidate": _candidate_state(candidate), "vector": list(vector)}
                for candidate, vector in self._population
            ],
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        self._check_state(state)
        _restore_rng(self._rng, state["rng"])
        self._generation = int(state["generation"])
        self._ranks = None
        self._population = [
            (
                _candidate_from_state(entry["candidate"]),
                tuple(float(value) for value in entry["vector"]),
            )
            for entry in state["population"]
        ]


_STRATEGIES: Dict[str, Type[SearchStrategy]] = {
    ExhaustiveSearch.name: ExhaustiveSearch,
    RandomSearch.name: RandomSearch,
    AnnealingSearch.name: AnnealingSearch,
    NsgaSearch.name: NsgaSearch,
}

STRATEGY_NAMES: Tuple[str, ...] = ("exhaustive", "random", "annealing", "nsga2")


def strategy_options(name: str) -> Tuple[str, ...]:
    """The option names a strategy's constructor accepts (excluding the wiring)."""
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        known = ", ".join(STRATEGY_NAMES)
        raise ModelError(
            f"unknown search strategy {name!r}; known strategies: {known}"
        ) from None
    parameters = inspect.signature(cls.__init__).parameters
    return tuple(
        parameter for parameter in parameters if parameter not in ("self", "space", "objectives")
    )


def make_strategy(
    name: str,
    space: DesignSpace,
    seed: int = 0,
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
    **options: Any,
) -> SearchStrategy:
    """Instantiate a strategy by name (the CLI's ``--strategy`` values).

    Unknown strategies and unknown/invalid options both raise
    :class:`~repro.errors.ModelError` naming the strategy and its valid
    options -- a raw ``TypeError``/``ValueError`` from a constructor never
    escapes.
    """
    valid = strategy_options(name)  # raises ModelError for unknown names
    cls = _STRATEGIES[name]
    kwargs: Dict[str, Any] = dict(options)
    if "seed" in valid:
        kwargs.setdefault("seed", seed)
    try:
        return cls(space, objectives=objectives, **kwargs)
    except (TypeError, ValueError) as error:
        # TypeError: unknown option names; ValueError: malformed option values
        # (e.g. a non-numeric scalarisation weight deep in a spec dict).
        raise ModelError(
            f"invalid options for search strategy {name!r}: {error}; "
            f"valid options: {', '.join(valid)}"
        ) from None
