"""The generated ε-free body is what computes the paper's models.

:class:`~repro.tdg.evaluator.TDGEvaluator` falls back to its ε-aware body
only when a value the ε-free body reads is ε.  On the Table I chains, the
Fig. 5 padded pipeline and the LTE receiver that happens on the warm-up
iterations ``k < max_delay`` alone -- every later iteration runs ε-free --
and the equivalent instants still equal the explicit ones.
"""

import pytest

from repro.analysis.speedup import measure_speedup
from repro.archmodel import ArchitectureModel
from repro.core import EquivalentArchitectureModel, build_equivalent_spec
from repro.environment import RandomSizeStimulus
from repro.examples_lib import didactic_stimulus
from repro.explicit import ExplicitArchitectureModel
from repro.generator import build_chain_architecture, build_pipeline_architecture
from repro.generator.sweep import pad_equivalent_spec
from repro.kernel.simtime import microseconds
from repro.lte import build_lte_models
from repro.lte.scenario import OUTPUT_RELATION


def _assert_eps_free_after_warm_up(model: EquivalentArchitectureModel, iterations: int) -> None:
    evaluator = model.computer.evaluator
    assert evaluator.iteration == iterations
    assert evaluator.eps_aware_steps == min(evaluator.graph.max_delay, iterations)


def _assert_same_outputs(explicit, equivalent, relation: str) -> None:
    reference = explicit.output_instants(relation)
    assert reference
    assert equivalent.output_instants(relation) == reference


@pytest.mark.parametrize("stages", [1, 2, 3, 4])
def test_table1_chains_run_eps_free_after_warm_up(stages):
    items = 60
    explicit = ExplicitArchitectureModel(
        build_chain_architecture(stages), {"L1": didactic_stimulus(items, seed=3)}
    )
    explicit.run()
    architecture = build_chain_architecture(stages)
    equivalent = EquivalentArchitectureModel(
        architecture,
        {"L1": didactic_stimulus(items, seed=3)},
        spec=build_equivalent_spec(architecture),
    )
    equivalent.run()
    _assert_same_outputs(explicit, equivalent, f"L{stages + 1}")
    _assert_eps_free_after_warm_up(equivalent, items)


def test_fig5_padded_pipeline_runs_eps_free_after_warm_up():
    items, length = 40, 5

    def stimuli():
        return {"L0": RandomSizeStimulus(microseconds(10 * length), items, seed=7)}

    explicit = ExplicitArchitectureModel(build_pipeline_architecture(length), stimuli())
    explicit.run()
    architecture: ArchitectureModel = build_pipeline_architecture(length)
    spec = pad_equivalent_spec(build_equivalent_spec(architecture), 120)
    equivalent = EquivalentArchitectureModel(architecture, stimuli(), spec=spec)
    equivalent.run()
    output = architecture.external_outputs()[0].name
    _assert_same_outputs(explicit, equivalent, output)
    _assert_eps_free_after_warm_up(equivalent, items)
    # The sweep's own measurement still reports identical outputs.
    assert measure_speedup(
        lambda: build_pipeline_architecture(length), stimuli, pad_to_nodes=120
    ).outputs_identical


def test_lte_receiver_runs_eps_free_after_warm_up():
    symbols = 28
    explicit, equivalent = build_lte_models(symbols)
    explicit.run()
    equivalent.run()
    _assert_same_outputs(explicit, equivalent, OUTPUT_RELATION)
    _assert_eps_free_after_warm_up(equivalent, symbols)
