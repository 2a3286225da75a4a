"""Unit tests for temporal dependency graphs and their evaluator."""

import pytest

from repro.errors import ComputationError, GraphError
from repro.kernel.simtime import Duration, Time, microseconds
from repro.tdg import TDGEvaluator, TemporalDependencyGraph


def simple_graph() -> TemporalDependencyGraph:
    """u -> x1 -(2us)-> y with feedback y(k-1) -(1us)-> x1."""
    graph = TemporalDependencyGraph("simple")
    graph.add_input("u")
    graph.add_internal("x1")
    graph.add_output("y")
    graph.add_arc("u", "x1", microseconds(3))
    graph.add_arc("x1", "y", microseconds(2))
    graph.add_arc("y", "x1", microseconds(1), delay=1)
    return graph


class TestGraphConstruction:
    def test_node_kinds_and_counts(self):
        graph = simple_graph()
        assert graph.node_count == 3
        assert graph.arc_count == 3
        assert [node.name for node in graph.input_nodes] == ["u"]
        assert [node.name for node in graph.internal_nodes] == ["x1"]
        assert [node.name for node in graph.output_nodes] == ["y"]
        assert graph.max_delay == 1
        assert graph.is_constant_weighted()

    def test_duplicate_node_rejected(self):
        graph = TemporalDependencyGraph()
        graph.add_input("u")
        with pytest.raises(GraphError):
            graph.add_internal("u")

    def test_unknown_node_rejected(self):
        graph = TemporalDependencyGraph()
        graph.add_input("u")
        with pytest.raises(GraphError):
            graph.add_arc("u", "missing")
        with pytest.raises(GraphError):
            graph.node("missing")

    def test_arc_into_input_node_rejected(self):
        graph = TemporalDependencyGraph()
        graph.add_input("u")
        graph.add_internal("x")
        graph.add_arc("u", "x")
        with pytest.raises(GraphError):
            graph.add_arc("x", "u")

    def test_negative_weight_and_delay_rejected(self):
        graph = TemporalDependencyGraph()
        graph.add_input("u")
        graph.add_internal("x")
        with pytest.raises(GraphError):
            graph.add_arc("u", "x", Duration(-1))
        with pytest.raises(GraphError):
            graph.add_arc("u", "x", delay=-1)
        with pytest.raises(GraphError):
            graph.add_arc("u", "x", weight="bad")

    def test_zero_delay_cycle_detected(self):
        graph = TemporalDependencyGraph()
        graph.add_input("u")
        graph.add_internal("a")
        graph.add_internal("b")
        graph.add_arc("u", "a")
        graph.add_arc("a", "b")
        graph.add_arc("b", "a")
        with pytest.raises(GraphError, match="cycle"):
            graph.validate()

    def test_delayed_self_cycle_is_allowed(self):
        graph = TemporalDependencyGraph()
        graph.add_input("u")
        graph.add_internal("a")
        graph.add_arc("u", "a")
        graph.add_arc("a", "a", microseconds(1), delay=1)
        graph.validate()

    def test_unreachable_computed_node_rejected(self):
        graph = TemporalDependencyGraph()
        graph.add_input("u")
        graph.add_internal("orphan")
        with pytest.raises(GraphError, match="no incoming arc"):
            graph.validate()

    def test_topological_order_respects_zero_delay_arcs(self):
        graph = simple_graph()
        order = [node.name for node in graph.topological_order()]
        assert order.index("u") < order.index("x1") < order.index("y")

    def test_describe_mentions_every_node(self):
        description = simple_graph().describe()
        for name in ("u", "x1", "y"):
            assert name in description

    def test_dynamic_weight_requires_callable_returning_duration(self):
        graph = TemporalDependencyGraph()
        graph.add_input("u")
        graph.add_internal("x")
        graph.add_arc("u", "x", weight=lambda k, ctx: "oops")
        evaluator = TDGEvaluator(graph)
        with pytest.raises(GraphError):
            evaluator.step({"u": 0})

    def test_constant_weight_accessor(self):
        graph = simple_graph()
        arc = graph.arcs_into("y")[0]
        assert arc.constant_weight == microseconds(2)
        dynamic_graph = TemporalDependencyGraph()
        dynamic_graph.add_input("u")
        dynamic_graph.add_internal("x")
        arc = dynamic_graph.add_arc("u", "x", weight=lambda k, ctx: microseconds(k))
        assert not arc.is_constant
        with pytest.raises(GraphError):
            arc.constant_weight  # noqa: B018


class TestLinearExport:
    def test_constant_graph_exports_to_linear_system(self):
        system = simple_graph().to_linear_system()
        assert system.state_labels == ("x1", "y")
        assert system.input_labels == ("u",)
        simulator = system.simulator()
        from repro.maxplus import MaxPlusVector

        _, y0 = simulator.advance(MaxPlusVector([0]))
        assert y0.to_list() == [microseconds(5).picoseconds]
        _, y1 = simulator.advance(MaxPlusVector([0]))
        # x1(1) = max(u+3us, y(0)+1us) = 6us, y(1) = 8us
        assert y1.to_list() == [microseconds(8).picoseconds]

    def test_dynamic_graph_cannot_be_exported(self):
        graph = TemporalDependencyGraph()
        graph.add_input("u")
        graph.add_output("y")
        graph.add_arc("u", "y", weight=lambda k, ctx: microseconds(1))
        with pytest.raises(GraphError):
            graph.to_linear_system()


class TestEvaluator:
    def test_step_computes_expected_values(self):
        evaluator = TDGEvaluator(simple_graph(), record_all=True)
        assert evaluator.step({"u": 0}) == {"y": microseconds(5).picoseconds}
        assert evaluator.step({"u": microseconds(1).picoseconds}) == {
            "y": microseconds(8).picoseconds
        }
        assert evaluator.recorded("x1") == [
            microseconds(3).picoseconds,
            microseconds(6).picoseconds,
        ]

    def test_evaluator_matches_linear_system_on_constant_graph(self):
        graph = simple_graph()
        evaluator = TDGEvaluator(graph)
        simulator = graph.to_linear_system().simulator()
        from repro.maxplus import MaxPlusVector

        for k in range(20):
            u = k * 7_000_000
            outputs = evaluator.step({"u": u})
            _, y = simulator.advance(MaxPlusVector([u]))
            assert outputs["y"] == y.to_list()[0]

    def test_missing_input_rejected(self):
        evaluator = TDGEvaluator(simple_graph())
        with pytest.raises(ComputationError, match="missing input"):
            evaluator.step({})

    def test_none_input_propagates_epsilon(self):
        evaluator = TDGEvaluator(simple_graph())
        outputs = evaluator.step({"u": None})
        assert outputs["y"] is None

    def test_dynamic_weights_receive_iteration_and_context(self):
        graph = TemporalDependencyGraph()
        graph.add_input("u")
        graph.add_output("y")
        seen = []

        def weight(k, context):
            seen.append((k, context.get("token")))
            return microseconds(k + context.get("token", 0))

        graph.add_arc("u", "y", weight=weight)
        evaluator = TDGEvaluator(graph)
        evaluator.step({"u": 0}, context={"token": 2})
        evaluator.step({"u": 0}, context={"token": 5})
        assert seen == [(0, 2), (1, 5)]

    def test_value_access_and_ring_expiry(self):
        evaluator = TDGEvaluator(simple_graph(), record_nodes=["y"])
        for k in range(5):
            evaluator.step({"u": k})
        # y is recorded: any iteration is available
        assert evaluator.value("y", 0) is not None
        # x1 only lives in the ring (max_delay + 1 = 2 slots)
        assert evaluator.value("x1", 4) is not None
        with pytest.raises(ComputationError, match="no longer buffered"):
            evaluator.value("x1", 0)
        with pytest.raises(ComputationError):
            evaluator.value("x1", 99)
        with pytest.raises(ComputationError):
            evaluator.value("nope")

    def test_value_before_any_step_rejected(self):
        evaluator = TDGEvaluator(simple_graph())
        with pytest.raises(ComputationError):
            evaluator.value("y")
        with pytest.raises(ComputationError):
            evaluator.last_values()

    def test_recorded_times_wraps_in_time_objects(self):
        evaluator = TDGEvaluator(simple_graph(), record_nodes=["y"])
        evaluator.step({"u": 0})
        assert evaluator.recorded_times("y") == [Time.from_microseconds(5)]
        with pytest.raises(ComputationError):
            evaluator.recorded("x1")

    def test_unknown_record_node_rejected(self):
        with pytest.raises(ComputationError):
            TDGEvaluator(simple_graph(), record_nodes=["does-not-exist"])

    def test_override_value_affects_next_iterations(self):
        evaluator = TDGEvaluator(simple_graph(), record_nodes=["y"])
        evaluator.step({"u": 0})
        evaluator.override_value("y", 0, microseconds(50).picoseconds)
        outputs = evaluator.step({"u": 0})
        # x1(1) = max(0 + 3us, 50us + 1us) = 51us; y = 53us
        assert outputs["y"] == microseconds(53).picoseconds
        assert evaluator.recorded("y")[0] == microseconds(50).picoseconds

    def test_override_out_of_range_rejected(self):
        evaluator = TDGEvaluator(simple_graph())
        with pytest.raises(ComputationError):
            evaluator.override_value("y", 0, 0)
        for k in range(4):
            evaluator.step({"u": k})
        with pytest.raises(ComputationError, match="no longer buffered"):
            evaluator.override_value("y", 0, 0)

    def test_peek_delayed_uses_only_history(self):
        graph = TemporalDependencyGraph()
        graph.add_input("u")
        graph.add_internal("ready")
        graph.add_output("y")
        graph.add_arc("u", "y", microseconds(4))
        graph.add_arc("y", "ready", microseconds(1), delay=1)
        evaluator = TDGEvaluator(graph)
        assert evaluator.peek_delayed("ready") is None  # no history yet
        evaluator.step({"u": 0})
        assert evaluator.peek_delayed("ready") == microseconds(5).picoseconds

    def test_peek_delayed_rejects_zero_delay_dependencies(self):
        evaluator = TDGEvaluator(simple_graph())
        with pytest.raises(ComputationError, match="delay 0"):
            evaluator.peek_delayed("x1")

    def test_listener_sees_every_node_of_every_iteration(self):
        evaluator = TDGEvaluator(simple_graph())
        seen = []
        evaluator.add_listener(lambda k, node, value: seen.append((k, node.name)))
        evaluator.step({"u": 0})
        assert sorted(seen) == [(0, "u"), (0, "x1"), (0, "y")]

    def test_record_all_keeps_every_node(self):
        evaluator = TDGEvaluator(simple_graph(), record_all=True)
        evaluator.step({"u": 0})
        assert set(evaluator.last_values()) == {"u", "x1", "y"}
        assert evaluator.recorded("u") == [0]


class TestGeneratedCode:
    """The evaluator runs code generated per graph, cached by its source text."""

    def test_evaluators_of_one_graph_share_their_code(self):
        first, second = TDGEvaluator(simple_graph()), TDGEvaluator(simple_graph())
        assert first._eps_free.__code__ is second._eps_free.__code__
        assert first._eps_aware.__code__ is second._eps_aware.__code__
        # Each evaluator still owns its functions and ring.
        assert first._eps_free is not second._eps_free

    def test_a_changed_constant_compiles_new_code(self):
        changed = TemporalDependencyGraph("simple")
        changed.add_input("u")
        changed.add_internal("x1")
        changed.add_output("y")
        changed.add_arc("u", "x1", microseconds(4))  # 3 us in simple_graph()
        changed.add_arc("x1", "y", microseconds(2))
        changed.add_arc("y", "x1", microseconds(1), delay=1)
        reference, other = TDGEvaluator(simple_graph()), TDGEvaluator(changed)
        assert other._eps_free.__code__ is not reference._eps_free.__code__
        assert other.step({"u": 0}) == {"y": microseconds(6).picoseconds}

    def test_the_code_cache_is_bounded(self):
        from repro.tdg import evaluator as module

        for offset in range(module._CODE_CACHE_LIMIT + 5):
            graph = TemporalDependencyGraph("bounded")
            graph.add_input("u")
            graph.add_output("y")
            graph.add_arc("u", "y", Duration(offset))
            TDGEvaluator(graph)
        assert len(module._CODE_CACHE) <= module._CODE_CACHE_LIMIT

    def test_node_names_never_enter_the_source(self):
        hostile = "__import__('os').system('false')\n\"{x}\""
        output, ready = "y'); raise SystemExit('", "ready{}\n#"
        graph = TemporalDependencyGraph("hostile")
        graph.add_input(hostile)
        graph.add_output(output)
        graph.add_internal(ready)
        graph.add_arc(hostile, output, microseconds(1))
        graph.add_arc(output, ready, microseconds(2), delay=1)
        evaluator = TDGEvaluator(graph)
        assert evaluator.step({hostile: 0}) == {output: microseconds(1).picoseconds}
        assert evaluator.peek_delayed(ready) == microseconds(3).picoseconds
        with pytest.raises(ComputationError, match="requires delayed arcs only"):
            evaluator.peek_delayed(output)
        with pytest.raises(ComputationError, match="missing input instant"):
            evaluator.step({})

    def test_the_eps_aware_body_runs_only_while_a_read_value_is_eps(self):
        evaluator = TDGEvaluator(simple_graph())
        evaluator.step({"u": 0})  # k = 0 reads y(-1) = ε
        evaluator.step({"u": 10})
        assert evaluator.eps_aware_steps == 1
        evaluator.override_value("y", 1, None)
        evaluator.step({"u": 20})  # reads the overridden ε
        evaluator.step({"u": None})  # ε input; y(3) still follows y(2)
        assert evaluator.eps_aware_steps == 3
        assert evaluator.step({"u": 30}) == {"y": microseconds(11).picoseconds + 20}
        assert evaluator.eps_aware_steps == 3

    def test_hoisted_workloads_keep_each_models_value_and_check(self):
        from repro.archmodel import DataToken, PerUnitExecutionTime
        from repro.core.builder import workload_weight
        from repro.errors import ModelError

        # Two per-unit models on one attribute with different defaults and
        # per-unit costs, each behind two arcs.
        small = PerUnitExecutionTime(Duration(5), Duration(1), default_units=0)
        large = PerUnitExecutionTime(Duration(5), Duration(3), default_units=2)
        graph = TemporalDependencyGraph("hoisted")
        graph.add_input("u")
        for name in ("a", "b", "c", "d"):
            graph.add_output(name)
        graph.add_arc("u", "a", workload_weight(small))
        graph.add_arc("u", "b", workload_weight(large))
        graph.add_arc("a", "c", workload_weight(small))
        graph.add_arc("b", "d", workload_weight(large))
        graph.add_arc("d", "a", delay=1)
        evaluator = TDGEvaluator(graph)

        def step(token):
            return evaluator.step({"u": 100}, {"token": token})

        step(None)  # warm-up: the ε-aware body
        assert step(DataToken(1, {})) == {"a": 122, "b": 111, "c": 127, "d": 122}
        assert step(DataToken(2, {"size": 4})) == {"a": 122, "b": 117, "c": 131, "d": 134}
        assert evaluator.eps_aware_steps == 1
        for bad in (-1, True, 1.5):
            with pytest.raises(ModelError) as raised:
                step(DataToken(3, {"size": bad}))
            with pytest.raises(ModelError) as expected:
                small.duration_ps(3, DataToken(3, {"size": bad}))
            assert str(raised.value) == str(expected.value)
        assert evaluator.iteration == 3

    def test_peek_evaluates_the_delayed_arcs_before_a_zero_delay_one(self):
        calls = []

        def weight(k, context):
            calls.append(k)
            return Duration(1)

        graph = simple_graph()
        graph.add_internal("r")
        graph.add_arc("y", "r", weight, delay=1)
        graph.add_arc("x1", "r")
        evaluator = TDGEvaluator(graph)
        with pytest.raises(ComputationError, match="'r'.*arc from 'x1' has delay 0"):
            evaluator.peek_delayed("r")
        assert calls == []  # y(-1) is ε: its weight is not evaluated
        evaluator.step({"u": 0})
        with pytest.raises(ComputationError, match="'r'.*arc from 'x1' has delay 0"):
            evaluator.peek_delayed("r")
        assert calls == [1]  # y(0) has a value: its weight is evaluated first
