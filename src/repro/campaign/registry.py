"""Scenario families and the registry of runnable experiments.

A :class:`Scenario` couples a *planner* -- a function turning a resolved
parameter mapping into concrete architecture/stimuli factories -- with
default parameters, a default parameter grid and a default replication
count.  The registry ships parameterised versions of the paper's
experiments (Table I chains, Fig. 5 pipeline sweeps, the LTE receiver)
plus Monte-Carlo scenarios exercising the stochastic workload and
stimulus models; new families register with
:meth:`ScenarioRegistry.register`.

Planners run *inside the worker process*: only the scenario name and the
parameter mapping cross process boundaries, the closures they build never
do.  Every planner must treat the ``seed`` parameter as the single source
of randomness so that a job is a pure function of its spec.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..environment.stimulus import RandomSizeStimulus, Stimulus
from ..errors import CampaignError
from ..examples_lib.didactic import didactic_stimulus
from ..generator.chains import (
    build_chain_architecture,
    build_pipeline_architecture,
    stochastic_chain_workloads,
)
from ..kernel.simtime import microseconds
from ..lte.receiver import INPUT_RELATION, build_lte_architecture
from ..lte.scenario import lte_symbol_stimulus
from .spec import JobSpec, ScenarioSpec

__all__ = [
    "ExperimentPlan",
    "Scenario",
    "ScenarioRegistry",
    "build_default_registry",
    "default_registry",
    "expand_grid",
]

Planner = Callable[[Mapping[str, Any]], "ExperimentPlan"]

#: Alternative job body: takes the job and its fully-resolved parameters and
#: returns a JSON-safe :class:`~repro.campaign.results.JobResult` record.  A
#: scenario with an executor bypasses ``measure_speedup`` entirely -- this is
#: how a ``dse-eval`` job scores one candidate mapping with the equivalent
#: model only while still riding the runner/store machinery.
Executor = Callable[[JobSpec, Dict[str, Any]], Dict[str, Any]]


@dataclass(frozen=True)
class ExperimentPlan:
    """Concrete factories for one job, ready for ``measure_speedup``."""

    architecture_factory: Callable[[], Any]
    stimuli_factory: Callable[[], Mapping[str, Stimulus]]
    label: str = ""
    abstract_functions: Optional[List[str]] = None
    pad_to_nodes: Optional[int] = None


def expand_grid(axes: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of the grid axes, in sorted-axis-name order."""
    if not axes:
        return [{}]
    names = sorted(axes)
    for name in names:
        values = axes[name]
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise CampaignError(f"grid axis {name!r} must be a sequence of values")
        if len(values) == 0:
            raise CampaignError(f"grid axis {name!r} is empty")
    return [
        dict(zip(names, point))
        for point in itertools.product(*(axes[name] for name in names))
    ]


@dataclass(frozen=True)
class Scenario:
    """A parameterised experiment family.

    Exactly one of ``planner`` (the speed-up measurement path) or
    ``executor`` (a custom job body returning a result record) must be set;
    both resolve inside worker processes from the scenario name alone.
    """

    name: str
    description: str
    planner: Optional[Planner] = None
    defaults: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    replications: int = 1
    executor: Optional[Executor] = None

    def __post_init__(self) -> None:
        if (self.planner is None) == (self.executor is None):
            raise CampaignError(
                f"scenario {self.name!r} needs exactly one of planner or executor"
            )

    def parameter_points(
        self,
        overrides: Optional[Mapping[str, Any]] = None,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
    ) -> List[Dict[str, Any]]:
        """Resolved parameter mappings, one per grid point.

        ``overrides`` pin single parameter values (a pinned parameter drops
        the like-named default grid axis); ``grid`` replaces/adds whole axes.
        """
        overrides = dict(overrides or {})
        axes: Dict[str, Sequence[Any]] = {
            name: values for name, values in self.grid.items() if name not in overrides
        }
        axes.update(grid or {})
        points = []
        for point in expand_grid(axes):
            parameters = dict(self.defaults)
            parameters.update(overrides)
            parameters.update(point)
            points.append(parameters)
        return points

    def specs(
        self,
        overrides: Optional[Mapping[str, Any]] = None,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        replications: Optional[int] = None,
        record_instants: bool = False,
    ) -> List[ScenarioSpec]:
        """Expand the family into fully-resolved :class:`ScenarioSpec` points."""
        return [
            ScenarioSpec(
                scenario=self.name,
                parameters=parameters,
                replications=replications if replications is not None else self.replications,
                record_instants=record_instants,
            )
            for parameters in self.parameter_points(overrides, grid)
        ]

    def job_count(self) -> int:
        """Number of jobs a default run of this family expands into."""
        return len(self.parameter_points()) * self.replications


class ScenarioRegistry:
    """Name-indexed collection of scenario families."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    def register(self, scenario: Scenario) -> Scenario:
        if scenario.name in self._scenarios:
            raise CampaignError(f"scenario {scenario.name!r} is already registered")
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            known = ", ".join(self.names()) or "(none)"
            raise CampaignError(f"unknown scenario {name!r}; known scenarios: {known}") from None

    def names(self) -> List[str]:
        return sorted(self._scenarios)

    def scenarios(self) -> List[Scenario]:
        return [self._scenarios[name] for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __len__(self) -> int:
        return len(self._scenarios)


# --------------------------------------------------------------------------
# Built-in scenario families
# --------------------------------------------------------------------------

def _plan_table1(parameters: Mapping[str, Any]) -> ExperimentPlan:
    stages = int(parameters["stages"])
    items = int(parameters["items"])
    seed = int(parameters["seed"])
    return ExperimentPlan(
        architecture_factory=lambda: build_chain_architecture(stages),
        stimuli_factory=lambda: {"L1": didactic_stimulus(items, seed=seed)},
        label=f"Example {stages}",
    )


def _plan_fig5(parameters: Mapping[str, Any]) -> ExperimentPlan:
    x_size = int(parameters["x_size"])
    items = int(parameters["items"])
    nodes = int(parameters["nodes"])
    seed = int(parameters["seed"])
    length = max(x_size - 1, 1)
    return ExperimentPlan(
        architecture_factory=lambda: build_pipeline_architecture(length),
        stimuli_factory=lambda: {
            "L0": RandomSizeStimulus(microseconds(10 * length), items, seed=seed)
        },
        pad_to_nodes=nodes,
        label=f"nodes={nodes}",
    )


def _plan_lte(parameters: Mapping[str, Any]) -> ExperimentPlan:
    symbols = int(parameters["symbols"])
    seed = int(parameters["seed"])
    return ExperimentPlan(
        architecture_factory=build_lte_architecture,
        stimuli_factory=lambda: {INPUT_RELATION: lte_symbol_stimulus(symbols, seed=seed)},
        label=f"lte symbols={symbols}",
    )


def _plan_stochastic_chain(parameters: Mapping[str, Any]) -> ExperimentPlan:
    stages = int(parameters["stages"])
    items = int(parameters["items"])
    seed = int(parameters["seed"])
    low = microseconds(float(parameters["low_us"]))
    high = microseconds(float(parameters["high_us"]))
    return ExperimentPlan(
        architecture_factory=lambda: build_chain_architecture(
            stages,
            stage_workloads=lambda stage: stochastic_chain_workloads(
                seed, stage, low=low, high=high
            ),
        ),
        # Decorrelate the size sequence from the duration samples.
        stimuli_factory=lambda: {"L1": didactic_stimulus(items, seed=seed + 1)},
        label=f"stochastic chain-{stages}",
    )


def _plan_random_pipeline(parameters: Mapping[str, Any]) -> ExperimentPlan:
    length = int(parameters["length"])
    items = int(parameters["items"])
    min_size = int(parameters["min_size"])
    max_size = int(parameters["max_size"])
    seed = int(parameters["seed"])
    return ExperimentPlan(
        architecture_factory=lambda: build_pipeline_architecture(length),
        stimuli_factory=lambda: {
            "L0": RandomSizeStimulus(
                microseconds(8 * length), items, min_size=min_size, max_size=max_size, seed=seed
            )
        },
        label=f"random pipeline-{length}",
    )


def build_default_registry() -> ScenarioRegistry:
    """A fresh registry with the paper's experiments and the Monte-Carlo families."""
    registry = ScenarioRegistry()
    registry.register(
        Scenario(
            name="table1-sweep",
            description="Table I: speed-up / event ratio on chained didactic stages",
            planner=_plan_table1,
            defaults={"items": 400, "seed": 2014},
            grid={"stages": [1, 2, 3, 4]},
        )
    )
    registry.register(
        Scenario(
            name="fig5-sweep",
            description="Fig. 5: speed-up vs TDG node count for one X(k) size",
            planner=_plan_fig5,
            defaults={"items": 200, "x_size": 10, "seed": 7},
            grid={"nodes": [50, 100, 200, 500, 1000]},
        )
    )
    registry.register(
        Scenario(
            name="lte",
            description="Section V: LTE receiver explicit vs equivalent model",
            planner=_plan_lte,
            defaults={"symbols": 280, "seed": 2014},
        )
    )
    registry.register(
        Scenario(
            name="stochastic-chain",
            description="Monte-Carlo chain with stochastic execution times (replicated)",
            planner=_plan_stochastic_chain,
            defaults={"stages": 2, "items": 200, "low_us": 1.0, "high_us": 12.0, "seed": 2014},
            replications=5,
        )
    )
    registry.register(
        Scenario(
            name="random-pipeline",
            description="Monte-Carlo pipeline with random data sizes (replicated)",
            planner=_plan_random_pipeline,
            defaults={"length": 6, "items": 300, "min_size": 1, "max_size": 64, "seed": 2014},
            replications=5,
        )
    )
    # Imported lazily: repro.dse builds on the campaign layer, so a module-level
    # import here would be circular.  The registration itself is ordinary.
    from ..dse.scenario import register_dse_scenario

    register_dse_scenario(registry)
    return registry


_DEFAULT_REGISTRY: Optional[ScenarioRegistry] = None


def default_registry() -> ScenarioRegistry:
    """The process-wide registry (built lazily; workers rebuild their own copy)."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = build_default_registry()
    return _DEFAULT_REGISTRY
