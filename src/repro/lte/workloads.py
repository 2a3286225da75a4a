"""Computation-load models of the LTE receiver functions.

The paper's case study (and the earlier journal paper [14] it builds
on) characterises each receiver function by the computational
complexity it puts on its processing resource.  Absolute figures from
the authors' characterisation are not public, so this module provides a
synthetic but structurally faithful substitution (see DESIGN.md):

* every function's operation count scales with the frame parameters
  (allocated resource blocks, bits per modulation symbol), which is
  what makes execution times data-dependent;
* every function has an *effective processing rate* on its resource, so
  that the observed computational complexity per time unit lands in the
  ranges visible in Fig. 6 -- a few GOPS (4-8) for the functions mapped
  on the digital signal processor and 75-150 GOPS for the dedicated
  channel-decoder hardware;
* with a full 20 MHz / 64QAM configuration the per-symbol processing
  time stays below the 71.42 us symbol period, as required for a
  real-time receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..archmodel.token import DataToken
from ..archmodel.workload import ExecutionTimeModel
from ..kernel.simtime import PS_PER_SECOND, Duration

__all__ = ["LteFunctionLoad", "lte_function_loads", "lte_workload_models"]


@dataclass(frozen=True)
class LteFunctionLoad:
    """Operation-count model of one receiver function.

    ``operations = base + per_rb * resource_blocks + per_bit * resource_blocks * bits``
    and the execution time is ``operations / rate_ops_per_second``.
    """

    name: str
    base_operations: float
    operations_per_rb: float
    operations_per_rb_bit: float
    rate_ops_per_second: float

    def operations(self, token: Optional[DataToken]) -> float:
        resource_blocks = int(token.get("resource_blocks", 6)) if token else 6
        bits = int(token.get("bits_per_symbol", 2)) if token else 2
        return (
            self.base_operations
            + self.operations_per_rb * resource_blocks
            + self.operations_per_rb_bit * resource_blocks * bits
        )

    def duration(self, token: Optional[DataToken]) -> Duration:
        operations = self.operations(token)
        return Duration.from_seconds(operations / self.rate_ops_per_second)


def _decoder_rate(token: Optional[DataToken]) -> float:
    """Effective decoder throughput: higher-order modulations use the faster mode.

    This is what produces the two usage levels (~75 and ~150 GOPS) visible in
    Fig. 6(c).
    """
    bits = int(token.get("bits_per_symbol", 2)) if token else 2
    if bits <= 2:
        return 75e9
    if bits == 4:
        return 110e9
    return 150e9


def lte_function_loads() -> Dict[str, LteFunctionLoad]:
    """Per-function load models of the eight receiver functions."""
    return {
        # Front end: cyclic-prefix removal and FFT.
        "CpFft": LteFunctionLoad("CpFft", 10_000.0, 800.0, 0.0, 8e9),
        # Pilot-based channel estimation.
        "ChannelEstimation": LteFunctionLoad("ChannelEstimation", 2_000.0, 600.0, 0.0, 6e9),
        # MMSE equalisation of the occupied subcarriers.
        "Equalization": LteFunctionLoad("Equalization", 2_000.0, 1_000.0, 0.0, 8e9),
        # Soft demapping (LLR computation), scales with the modulation order.
        "Demapping": LteFunctionLoad("Demapping", 1_000.0, 0.0, 60.0, 7e9),
        # Descrambling of the soft bits.
        "Descrambling": LteFunctionLoad("Descrambling", 500.0, 0.0, 20.0, 5e9),
        # HARQ rate dematching.
        "RateDematching": LteFunctionLoad("RateDematching", 500.0, 0.0, 30.0, 5e9),
        # Turbo channel decoding (dedicated hardware resource).
        "ChannelDecoding": LteFunctionLoad("ChannelDecoding", 20_000.0, 0.0, 2_000.0, 150e9),
        # Transport-block CRC check.
        "CrcCheck": LteFunctionLoad("CrcCheck", 200.0, 0.0, 10.0, 4e9),
    }


class _LoadExecutionTime(ExecutionTimeModel):
    """Adapter turning an :class:`LteFunctionLoad` into an execution-time model."""

    def __init__(self, load: LteFunctionLoad, variable_rate: bool = False) -> None:
        self._load = load
        self._variable_rate = variable_rate

    def duration_ps(self, k: int, token: Optional[DataToken]) -> int:
        operations = self._load.operations(token)
        rate = _decoder_rate(token) if self._variable_rate else self._load.rate_ops_per_second
        # Duration.from_seconds' rounding, without the Duration.
        return round(operations / rate * PS_PER_SECOND)

    def operations(self, k: int, token: Optional[DataToken]) -> float:
        return self._load.operations(token)


def lte_workload_models() -> Dict[str, ExecutionTimeModel]:
    """Execution-time models for the eight receiver functions.

    The channel decoder uses a modulation-dependent effective rate (the
    dedicated hardware has a fast mode for high-order modulations); every
    other function uses its fixed DSP rate.
    """
    loads = lte_function_loads()
    models: Dict[str, ExecutionTimeModel] = {}
    for name, load in loads.items():
        models[name] = _LoadExecutionTime(load, variable_rate=(name == "ChannelDecoding"))
    return models
