"""Named design problems: an application plus a bank of candidate resources.

A :class:`DesignProblem` fixes the *givens* of an exploration -- which
application is being mapped, which resources the platform could
instantiate, and which stimulus drives the evaluation -- while the
mapping itself is the unknown.  The shipped problems re-use the
applications of the paper's experiments but replace their fixed
platforms with a bank of identical processors, so that allocation
decisions trade end-to-end latency against the number of resources
instantiated (the classic cost axis of mapping DSE).

The ``dse-eval`` campaign job looks problems up by name (possibly in a
worker process), so everything here must be reconstructible from
``(name, parameters)`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..archmodel.application import ApplicationModel
from ..archmodel.function import AppFunction
from ..archmodel.platform import PlatformModel
from ..environment.stimulus import Stimulus
from ..errors import ModelError
from ..examples_lib.didactic import (
    build_didactic_architecture,
    didactic_stimulus,
    didactic_workloads,
)
from ..generator.chains import build_chain_architecture
from ..kernel.simtime import microseconds
from ..lte.receiver import (
    GROUP_ELIGIBILITY,
    INPUT_RELATION as LTE_INPUT_RELATION,
    build_grouped_lte_application,
    build_lte_bank,
    heterogeneous_lte_workloads,
)
from ..lte.scenario import lte_fixed_symbol_stimulus, lte_symbol_stimulus
from .pareto import DEFAULT_OBJECTIVES, Objective
from .space import DesignSpace, EligibilitySpec

__all__ = ["DesignProblem", "problem_registry", "get_problem", "problem_names"]


@dataclass(frozen=True)
class DesignProblem:
    """One named mapping-exploration problem."""

    name: str
    description: str
    #: Build the application from the problem parameters.
    application_factory: Callable[[Mapping[str, Any]], ApplicationModel]
    #: Build the bank of candidate resources from the problem parameters.
    platform_factory: Callable[[Mapping[str, Any]], PlatformModel]
    #: Build the stimuli (relation -> stimulus) from the problem parameters.
    stimuli_factory: Callable[[Mapping[str, Any]], Dict[str, Stimulus]]
    #: Parameter defaults merged under the caller's overrides.
    defaults: Mapping[str, Any]
    #: Optional allocation constraint of heterogeneous problems: builds the
    #: :data:`~repro.dse.space.EligibilitySpec` from the resolved parameters.
    eligibility_factory: Optional[Callable[[Mapping[str, Any]], EligibilitySpec]] = None
    #: The objectives an exploration of this problem minimises by default.
    objectives: Tuple[Objective, ...] = field(default=DEFAULT_OBJECTIVES)

    def parameters(self, overrides: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        parameters = dict(self.defaults)
        parameters.update(overrides or {})
        return parameters

    def space(
        self,
        parameters: Optional[Mapping[str, Any]] = None,
        max_resources: Optional[int] = None,
        explore_orders: bool = True,
        strict: bool = True,
    ) -> DesignSpace:
        """The design space of this problem under ``parameters``."""
        resolved = self.parameters(parameters)
        eligible = (
            self.eligibility_factory(resolved)
            if self.eligibility_factory is not None
            else None
        )
        return DesignSpace(
            self.application_factory(resolved),
            self.platform_factory(resolved),
            max_resources=max_resources,
            explore_orders=explore_orders,
            strict=strict,
            eligible=eligible,
        )


def _processor_bank(name: str, count: int) -> PlatformModel:
    if count < 1:
        raise ModelError("a processor bank needs at least one processor")
    platform = PlatformModel(name)
    for index in range(count):
        platform.add_processor(f"P{index + 1}")
    return platform


def _didactic_application(parameters: Mapping[str, Any]) -> ApplicationModel:
    # The didactic builder assembles application + platform + mapping; the
    # DSE problem keeps the application and replaces the rest.
    return build_didactic_architecture().application


def _didactic_platform(parameters: Mapping[str, Any]) -> PlatformModel:
    return _processor_bank("didactic-bank", int(parameters["processors"]))


def _didactic_stimuli(parameters: Mapping[str, Any]) -> Dict[str, Stimulus]:
    return {
        "M1": didactic_stimulus(
            count=int(parameters["items"]), seed=int(parameters["seed"])
        )
    }


def _didactic_periodic_stimuli(parameters: Mapping[str, Any]) -> Dict[str, Stimulus]:
    # One fixed data size: every workload duration becomes
    # iteration-independent, which is what lets the steady-state evaluator
    # certify the periodic regime and extrapolate.
    size = int(parameters["size"])
    return {
        "M1": didactic_stimulus(
            count=int(parameters["items"]),
            min_size=size,
            max_size=size,
            seed=int(parameters["seed"]),
        )
    }


def _fork_application(parameters: Mapping[str, Any]) -> ApplicationModel:
    """One splitter feeding two independent branches with their own outputs.

    The two branches end in distinct external output relations (O1 and O2),
    which is what makes this the regression problem for multi-output latency
    scoring: a candidate that slows only the O2 branch must see its latency
    objective move.
    """
    workloads = didactic_workloads()
    application = ApplicationModel("fork")
    application.add_function(
        AppFunction("F1")
        .read("M1")
        .execute("Ti1", workloads["Ti1"])
        .write("N2")
        .write("N3")
    )
    application.add_function(
        AppFunction("F2").read("N2").execute("Ti3", workloads["Ti3"]).write("O1")
    )
    application.add_function(
        AppFunction("F3").read("N3").execute("Ti4", workloads["Ti4"]).write("O2")
    )
    return application


def _fork_platform(parameters: Mapping[str, Any]) -> PlatformModel:
    return _processor_bank("fork-bank", int(parameters["processors"]))


def _fork_stimuli(parameters: Mapping[str, Any]) -> Dict[str, Stimulus]:
    return {
        "M1": didactic_stimulus(
            count=int(parameters["items"]), seed=int(parameters["seed"])
        )
    }


def _chain_application(parameters: Mapping[str, Any]) -> ApplicationModel:
    return build_chain_architecture(int(parameters["stages"])).application


def _chain_platform(parameters: Mapping[str, Any]) -> PlatformModel:
    return _processor_bank("chain-bank", int(parameters["processors"]))


def _chain_stimuli(parameters: Mapping[str, Any]) -> Dict[str, Stimulus]:
    return {
        "L1": didactic_stimulus(
            count=int(parameters["items"]),
            period=microseconds(30),
            seed=int(parameters["seed"]),
        )
    }


def _chain_periodic_stimuli(parameters: Mapping[str, Any]) -> Dict[str, Stimulus]:
    size = int(parameters["size"])
    return {
        "L1": didactic_stimulus(
            count=int(parameters["items"]),
            period=microseconds(30),
            min_size=size,
            max_size=size,
            seed=int(parameters["seed"]),
        )
    }


def _lte_application(parameters: Mapping[str, Any]) -> ApplicationModel:
    return build_grouped_lte_application(
        heterogeneous_lte_workloads(
            processor_slowdown=float(parameters["processor_slowdown"]),
            dsp_decoder_slowdown=float(parameters["dsp_decoder_slowdown"]),
        ),
        fifo_capacity=int(parameters["fifo_capacity"]),
    )


def _lte_platform(parameters: Mapping[str, Any]) -> PlatformModel:
    return build_lte_bank(
        processors=int(parameters["processors"]),
        dsps=int(parameters["dsps"]),
        hardware=int(parameters["hardware"]),
    )


def _lte_stimuli(parameters: Mapping[str, Any]) -> Dict[str, Stimulus]:
    return {
        LTE_INPUT_RELATION: lte_symbol_stimulus(
            int(parameters["items"]), seed=int(parameters["seed"])
        )
    }


def _lte_periodic_stimuli(parameters: Mapping[str, Any]) -> Dict[str, Stimulus]:
    return {
        LTE_INPUT_RELATION: lte_fixed_symbol_stimulus(
            int(parameters["items"]),
            resource_blocks=int(parameters["resource_blocks"]),
            modulation=str(parameters["modulation"]),
        )
    }


def _lte_eligibility(parameters: Mapping[str, Any]) -> EligibilitySpec:
    return GROUP_ELIGIBILITY


#: The lte problem's objectives: end-to-end output latency, instantiated
#: resources, and the DSP load (dotted path into the per-kind utilisation
#: metrics) -- keeping DSP headroom is what motivates offloading groups onto
#: processors or the decoder hardware.
_LTE_OBJECTIVES: Tuple[Objective, ...] = (
    Objective("latency_ps", "latency"),
    Objective("resources_used", "resources"),
    Objective("kind_utilization.dsp", "DSP util"),
)


_PROBLEMS: Dict[str, DesignProblem] = {}


def _register(problem: DesignProblem) -> DesignProblem:
    if problem.name in _PROBLEMS:
        raise ModelError(f"design problem {problem.name!r} is already registered")
    _PROBLEMS[problem.name] = problem
    return problem


_register(
    DesignProblem(
        name="didactic",
        description="Fig. 1 application (F1..F4) on a bank of identical processors",
        application_factory=_didactic_application,
        platform_factory=_didactic_platform,
        stimuli_factory=_didactic_stimuli,
        defaults={"items": 40, "seed": 2014, "processors": 4},
    )
)
_register(
    DesignProblem(
        name="didactic-periodic",
        description=(
            "Fig. 1 application under a fixed-size periodic stimulus "
            "(stationary durations: the steady-state evaluator's home turf)"
        ),
        application_factory=_didactic_application,
        platform_factory=_didactic_platform,
        stimuli_factory=_didactic_periodic_stimuli,
        defaults={"items": 40, "seed": 2014, "processors": 4, "size": 60},
    )
)
_register(
    DesignProblem(
        name="fork",
        description="Splitter + two output branches (multi-output latency scoring)",
        application_factory=_fork_application,
        platform_factory=_fork_platform,
        stimuli_factory=_fork_stimuli,
        defaults={"items": 30, "seed": 2014, "processors": 3},
    )
)
_register(
    DesignProblem(
        name="lte",
        description=(
            "Grouped LTE receiver on a mixed processors/DSP/hardware bank "
            "(kind-constrained allocation, per-kind execution-time scaling)"
        ),
        application_factory=_lte_application,
        platform_factory=_lte_platform,
        stimuli_factory=_lte_stimuli,
        defaults={
            "items": 28,
            "seed": 2014,
            "processors": 2,
            "dsps": 2,
            "hardware": 1,
            "processor_slowdown": 2.5,
            "dsp_decoder_slowdown": 20.0,
            "fifo_capacity": 4,
        },
        eligibility_factory=_lte_eligibility,
        objectives=_LTE_OBJECTIVES,
    )
)
_register(
    DesignProblem(
        name="lte-periodic",
        description=(
            "Grouped LTE receiver under a pinned frame configuration "
            "(varying token attributes, constant per-symbol durations)"
        ),
        application_factory=_lte_application,
        platform_factory=_lte_platform,
        stimuli_factory=_lte_periodic_stimuli,
        defaults={
            "items": 28,
            "seed": 2014,
            "processors": 2,
            "dsps": 2,
            "hardware": 1,
            "processor_slowdown": 2.5,
            "dsp_decoder_slowdown": 20.0,
            "fifo_capacity": 4,
            "resource_blocks": 50,
            "modulation": "16QAM",
        },
        eligibility_factory=_lte_eligibility,
        objectives=_LTE_OBJECTIVES,
    )
)
_register(
    DesignProblem(
        name="chain",
        description="Table I chained stages on a bank of identical processors",
        application_factory=_chain_application,
        platform_factory=_chain_platform,
        stimuli_factory=_chain_stimuli,
        defaults={"items": 40, "seed": 2014, "stages": 2, "processors": 4},
    )
)
_register(
    DesignProblem(
        name="chain-periodic",
        description="Table I chained stages under a fixed-size periodic stimulus",
        application_factory=_chain_application,
        platform_factory=_chain_platform,
        stimuli_factory=_chain_periodic_stimuli,
        defaults={"items": 40, "seed": 2014, "stages": 2, "processors": 4, "size": 60},
    )
)


def problem_registry() -> Dict[str, DesignProblem]:
    """The registered problems, name-indexed (a copy)."""
    return dict(_PROBLEMS)


def problem_names() -> List[str]:
    return sorted(_PROBLEMS)


def get_problem(name: str) -> DesignProblem:
    try:
        return _PROBLEMS[name]
    except KeyError:
        known = ", ".join(problem_names()) or "(none)"
        raise ModelError(f"unknown design problem {name!r}; known problems: {known}") from None
