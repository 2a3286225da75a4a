"""Golden kernel counters of the paper's Table I models.

The paper's speed-up claim rests on counts: simulation events and
context switches.  These tests pin every :class:`KernelStats` counter,
every process's activation count and the output instants of the
explicit and the equivalent model of 1 to 4 chained didactic stages, so
that a change to the kernel, the channels or the drivers that makes an
activation cheaper cannot also change which activations happen.

The values were measured on the kernel that allocated a ``Time`` per
``Simulator.now`` read and dispatched wait requests with an
``isinstance`` ladder; they were identical across interpreters with
different string-hash seeds.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import didactic_stimulus
from repro.core import EquivalentArchitectureModel, build_equivalent_spec
from repro.explicit import ExplicitArchitectureModel
from repro.generator import build_chain_architecture

ITEMS = 2000
SEED = 2014

# (timed_notifications, delta_notifications, process_activations,
#  delta_cycles, time_advances) per stage count.
EQUIVALENT_STATS = {
    1: (4149, 6000, 8155, 8152, 4149),
    2: (4147, 6000, 8151, 8145, 4145),
    3: (4147, 6000, 8151, 8142, 4144),
    4: (4147, 6000, 8151, 8146, 4146),
}
EXPLICIT_STATS = {
    1: (12149, 28000, 35949, 28082, 12147),
    2: (24147, 54000, 67523, 53350, 24094),
    3: (36147, 80000, 99217, 78594, 36004),
    4: (48147, 106000, 130941, 103796, 47882),
}

# Activation count per process, in spawn order.
EQUIVALENT_ACTIVATIONS = {
    1: (2090, 2001, 2061, 2003),
    2: (2093, 2001, 2056, 2001),
    3: (2093, 2001, 2056, 2001),
    4: (2093, 2001, 2056, 2001),
}
EXPLICIT_ACTIVATIONS = {
    1: (13856, 10001, 4001, 4001, 2089, 2001),
    2: (13895, 10203, 4001, 4927, 12401, 10001, 4001, 4001, 2092, 2001),
    3: (
        13898, 10220, 4001, 4934, 12524, 10207, 4001, 4926,
        12410, 10001, 4001, 4001, 2092, 2001,
    ),
    4: (
        13898, 10223, 4001, 4934, 12548, 10224, 4001, 4933,
        12533, 10207, 4001, 4927, 12415, 10001, 4001, 4001, 2092, 2001,
    ),
}

# SHA-256 prefix of the comma-joined L(s+1) output instants in picoseconds.
OUTPUT_DIGESTS = {
    1: "571268d90168e2b4",
    2: "f0c0ed68db56fd22",
    3: "57b0c6e78c26c056",
    4: "c29a27a2e9bab2bd",
}


def _counters(stats):
    return (
        stats.timed_notifications,
        stats.delta_notifications,
        stats.process_activations,
        stats.delta_cycles,
        stats.time_advances,
    )


def _stimuli():
    return {"L1": didactic_stimulus(ITEMS, seed=SEED)}


@pytest.fixture(scope="module")
def table1_runs():
    runs = {}
    for stages in EQUIVALENT_STATS:
        explicit = ExplicitArchitectureModel(build_chain_architecture(stages), _stimuli())
        architecture = build_chain_architecture(stages)
        equivalent = EquivalentArchitectureModel(
            architecture, _stimuli(), spec=build_equivalent_spec(architecture)
        )
        explicit.run()
        equivalent.run()
        runs[stages] = (explicit, equivalent)
    return runs


@pytest.mark.parametrize("stages", sorted(EQUIVALENT_STATS))
def test_equivalent_model_counters(table1_runs, stages):
    _, equivalent = table1_runs[stages]
    assert _counters(equivalent.kernel_stats) == EQUIVALENT_STATS[stages]
    activations = tuple(p.activation_count for p in equivalent.simulator.processes)
    assert activations == EQUIVALENT_ACTIVATIONS[stages]


@pytest.mark.parametrize("stages", sorted(EXPLICIT_STATS))
def test_explicit_model_counters(table1_runs, stages):
    explicit, _ = table1_runs[stages]
    assert _counters(explicit.kernel_stats) == EXPLICIT_STATS[stages]
    activations = tuple(p.activation_count for p in explicit.simulator.processes)
    assert activations == EXPLICIT_ACTIVATIONS[stages]


@pytest.mark.parametrize("stages", sorted(OUTPUT_DIGESTS))
def test_output_instants_identical_and_pinned(table1_runs, stages):
    explicit, equivalent = table1_runs[stages]
    relation = f"L{stages + 1}"
    reference = [instant.picoseconds for instant in explicit.output_instants(relation)]
    computed = [instant.picoseconds for instant in equivalent.output_instants(relation)]
    assert len(reference) == ITEMS
    assert computed == reference
    text = ",".join(map(str, reference)).encode()
    assert hashlib.sha256(text).hexdigest()[:16] == OUTPUT_DIGESTS[stages]
