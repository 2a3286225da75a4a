"""Design-space exploration of mapping decisions (``repro.dse``).

The paper makes one performance evaluation of a multi-core architecture
cheap; this package puts that cheapness to work by *searching* over
mapping decisions -- which resource runs each function, how many
resources to instantiate, and in which static order a serialized
resource serves its execute steps.  Candidates are scored with the
equivalent model only (no explicit simulation in the inner loop), a
whole round in one batched sweep, memoize into the persistent result
store by content digest, and accumulate into a latency-vs-resources
Pareto front.

Layout
------
* :mod:`repro.dse.space` -- candidate encoding, enumeration, mutation
  (feasibility-aware order sampling under the default ``strict=True``);
* :mod:`repro.dse.problems` -- named application + resource-bank problems;
* :mod:`repro.dse.evaluate` -- equivalent-model-only candidate scoring;
* :mod:`repro.dse.compile` -- :class:`CompiledProblem`: one TDG template
  per problem, lowered once onto index tables; each candidate writes only
  what its mapping decides over them, with a certified steady-state
  evaluator (``evaluator="auto"``) that stops replaying once the
  periodic regime locks in;
* :mod:`repro.dse.search` -- exhaustive / random / annealing / nsga2
  strategies over objective *vectors*, with pluggable scalarisation and
  JSON-safe checkpointable state;
* :mod:`repro.dse.pareto` -- non-dominated tracking, crowding distance,
  2D hypervolume and ranked tables;
* :mod:`repro.dse.checkpoint` -- resumable exploration snapshots
  persisted as JSONL next to the result store;
* :mod:`repro.dse.scenario` -- the ``dse-eval`` campaign scenario;
* :mod:`repro.dse.explore` -- the :class:`MappingExplorer` driver
  (``checkpoint=`` / ``resume=``) and :func:`front_from_store`.

Quickstart
----------
>>> from repro.dse import MappingExplorer
>>> report = MappingExplorer(problem="didactic", strategy="random",
...                          budget=32, seed=7,
...                          parameters={"items": 10}).run()
>>> report.front_rows()  # doctest: +SKIP
"""

from .checkpoint import CheckpointFile, ExplorationCheckpoint
from .compile import CompiledProblem, compiled_problem
from .evaluate import (
    EVALUATOR_MODES,
    CandidateEvaluation,
    evaluate_candidate,
    evaluate_mapping,
)
from .explore import ExplorationReport, MappingExplorer, front_from_store
from .pareto import (
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
from .problems import DesignProblem, get_problem, problem_names, problem_registry
from .scenario import DSE_SCENARIO, execute_dse_job, register_dse_scenario
from .search import (
    STRATEGY_NAMES,
    AnnealingSearch,
    EpsilonConstraint,
    ExhaustiveSearch,
    NsgaSearch,
    Observation,
    RandomSearch,
    Scalarization,
    SearchStrategy,
    WeightedSum,
    make_scalarization,
    make_strategy,
    strategy_options,
)
from .space import DesignSpace, EligibilitySpec, MappingCandidate

__all__ = [
    "CheckpointFile",
    "ExplorationCheckpoint",
    "CompiledProblem",
    "compiled_problem",
    "CandidateEvaluation",
    "EVALUATOR_MODES",
    "evaluate_candidate",
    "evaluate_mapping",
    "ExplorationReport",
    "MappingExplorer",
    "front_from_store",
    "DEFAULT_OBJECTIVES",
    "Objective",
    "ParetoFront",
    "crowding_distance",
    "dominates",
    "hypervolume_2d",
    "nondominated_rank",
    "objective_vector",
    "pareto_rank",
    "ranked_rows",
    "vector_dominates",
    "DesignProblem",
    "get_problem",
    "problem_names",
    "problem_registry",
    "DSE_SCENARIO",
    "execute_dse_job",
    "register_dse_scenario",
    "STRATEGY_NAMES",
    "AnnealingSearch",
    "EpsilonConstraint",
    "ExhaustiveSearch",
    "NsgaSearch",
    "Observation",
    "RandomSearch",
    "Scalarization",
    "SearchStrategy",
    "WeightedSum",
    "make_scalarization",
    "make_strategy",
    "strategy_options",
    "DesignSpace",
    "EligibilitySpec",
    "MappingCandidate",
]
