"""Speed-up and event-ratio measurements.

The paper's Table I reports, for each architecture model: the execution
time of the (explicit) model, the *event ratio* between the explicit
and the equivalent model, the achieved *simulation speed-up* and the
number of nodes of the temporal dependency graph.  This module measures
all four quantities for any architecture expressible with the library,
and verifies along the way that the two models produced identical
output instants (the accuracy claim).

The key entry point is :func:`measure_speedup`; it builds the explicit
model and the equivalent model from the same architecture factory and
the same stimuli, runs both while measuring wall-clock time, and
returns a :class:`SpeedupMeasurement`.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..archmodel.architecture import ArchitectureModel
from ..core.builder import build_equivalent_spec
from ..core.model import EquivalentArchitectureModel
from ..environment.sink import Sink
from ..environment.stimulus import Stimulus
from ..errors import ModelError
from ..explicit.model import ExplicitArchitectureModel
from ..generator.sweep import pad_equivalent_spec
from ..kernel.stats import KernelStats
from ..observation.compare import compare_instants
from .events import theoretical_event_ratio

__all__ = ["SpeedupMeasurement", "measure_speedup"]

ArchitectureFactory = Callable[[], ArchitectureModel]
StimuliFactory = Callable[[], Mapping[str, Stimulus]]


@dataclass(frozen=True)
class SpeedupMeasurement:
    """One row of a Table-I-style measurement."""

    label: str
    iterations: int
    explicit_wall_seconds: float
    equivalent_wall_seconds: float
    explicit_relation_events: int
    equivalent_relation_events: int
    explicit_kernel: KernelStats
    equivalent_kernel: KernelStats
    tdg_nodes: int
    outputs_identical: bool
    mismatching_outputs: int
    #: Idealised event ratio of the measured architecture/grouping (None when
    #: the grouping admits no theoretical prediction).
    theoretical_ratio: Optional[float] = None
    #: Reference output instants in integer picoseconds, captured only when
    #: ``measure_speedup(..., capture_instants=True)`` (campaign result store).
    output_instants: Optional[Tuple[Optional[int], ...]] = None

    @property
    def speedup(self) -> float:
        """Wall-clock speed-up of the equivalent model over the explicit model."""
        if self.equivalent_wall_seconds <= 0.0:
            return float("inf")
        return self.explicit_wall_seconds / self.equivalent_wall_seconds

    @property
    def event_ratio(self) -> float:
        """Ratio of relation-exchange events between the two models."""
        if self.equivalent_relation_events == 0:
            return float("inf")
        return self.explicit_relation_events / self.equivalent_relation_events

    @property
    def activation_ratio(self) -> float:
        """Ratio of kernel context switches between the two models."""
        if self.equivalent_kernel.process_activations == 0:
            return float("inf")
        return (
            self.explicit_kernel.process_activations
            / self.equivalent_kernel.process_activations
        )

    def as_row(self) -> Dict[str, object]:
        """Flatten the measurement for table formatting."""
        return {
            "model": self.label,
            "iterations": self.iterations,
            "explicit time (s)": round(self.explicit_wall_seconds, 3),
            "equivalent time (s)": round(self.equivalent_wall_seconds, 3),
            "event ratio": round(self.event_ratio, 2),
            "speed-up": round(self.speedup, 2),
            "TDG nodes": self.tdg_nodes,
            "accuracy": "identical" if self.outputs_identical else
            f"{self.mismatching_outputs} mismatches",
        }


def measure_speedup(
    architecture_factory: ArchitectureFactory,
    stimuli_factory: StimuliFactory,
    sinks: Optional[Mapping[str, Sink]] = None,
    abstract_functions: Optional[List[str]] = None,
    pad_to_nodes: Optional[int] = None,
    label: str = "",
    check_accuracy: bool = True,
    record_activity: bool = False,
    capture_instants: bool = False,
) -> SpeedupMeasurement:
    """Measure the explicit-vs-equivalent speed-up for one architecture.

    ``architecture_factory`` is called twice (each model owns its
    architecture instance); ``stimuli_factory`` is also called twice, and must
    return stimuli that produce identical sequences (use seeded generators).
    ``pad_to_nodes`` optionally pads the equivalent model's graph to a target
    node count (Fig. 5 sweep).  ``capture_instants`` additionally records the
    explicit model's output instants (in picoseconds) on the measurement, so
    campaign workers can persist and cross-check them without re-running.
    """
    explicit_architecture = architecture_factory()
    explicit_model = ExplicitArchitectureModel(
        explicit_architecture,
        stimuli_factory(),
        sinks=sinks,
        record_activity=record_activity,
    )
    # Each timed run starts from a collected heap, so neither pays for a
    # collection of garbage that earlier work left behind.
    gc.collect()
    start = time.perf_counter()
    explicit_stats = explicit_model.run()
    explicit_wall = time.perf_counter() - start

    equivalent_architecture = architecture_factory()
    spec = build_equivalent_spec(equivalent_architecture, abstract_functions)
    if pad_to_nodes is not None:
        pad_equivalent_spec(spec, pad_to_nodes)
    equivalent_model = EquivalentArchitectureModel(
        equivalent_architecture,
        stimuli_factory(),
        sinks=sinks,
        spec=spec,
        record_activity=record_activity,
    )
    gc.collect()
    start = time.perf_counter()
    equivalent_stats = equivalent_model.run()
    equivalent_wall = time.perf_counter() - start

    outputs = equivalent_architecture.external_outputs()
    if not outputs:
        raise ModelError("speed-up measurement requires at least one external output relation")
    output_relation = outputs[0].name
    reference = explicit_model.output_instants(output_relation)
    candidate = equivalent_model.output_instants(output_relation)
    iterations = len(reference)
    if check_accuracy:
        comparison = compare_instants(reference, candidate)
        identical = comparison.identical
        mismatches = comparison.mismatch_count
    else:
        identical = True
        mismatches = 0
    try:
        theoretical = theoretical_event_ratio(equivalent_architecture, abstract_functions)
    except ModelError:
        theoretical = None
    instants: Optional[Tuple[Optional[int], ...]] = None
    if capture_instants:
        instants = tuple(
            instant.picoseconds if instant is not None else None for instant in reference
        )

    return SpeedupMeasurement(
        label=label or explicit_architecture.name,
        iterations=iterations,
        explicit_wall_seconds=explicit_wall,
        equivalent_wall_seconds=equivalent_wall,
        explicit_relation_events=explicit_model.relation_event_count(),
        equivalent_relation_events=equivalent_model.relation_event_count(),
        explicit_kernel=explicit_stats,
        equivalent_kernel=equivalent_stats,
        tdg_nodes=spec.graph.node_count,
        outputs_identical=identical,
        mismatching_outputs=mismatches,
        theoretical_ratio=theoretical,
        output_instants=instants,
    )
