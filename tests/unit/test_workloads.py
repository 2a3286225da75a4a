"""Unit tests for workload (execution-time) models and data tokens."""

import pytest

from repro.archmodel import (
    ConstantExecutionTime,
    CycleAccurateExecutionTime,
    DataDependentExecutionTime,
    DataToken,
    PerUnitExecutionTime,
    StochasticExecutionTime,
    TableExecutionTime,
)
from repro.errors import ModelError
from repro.kernel.simtime import Duration, microseconds, nanoseconds


class TestDataToken:
    def test_attributes_and_lookup(self):
        token = DataToken(3, {"size": 12, "mod": "QPSK"})
        assert token.index == 3
        assert token["size"] == 12
        assert token.get("missing", 7) == 7
        assert "mod" in token
        assert token.attributes == {"size": 12, "mod": "QPSK"}

    def test_with_attributes_returns_updated_copy(self):
        token = DataToken(0, {"size": 1})
        updated = token.with_attributes(size=5, extra=True)
        assert token["size"] == 1
        assert updated["size"] == 5
        assert updated["extra"] is True
        assert updated.index == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            DataToken(-1)


class TestConstantExecutionTime:
    def test_returns_fixed_values(self):
        model = ConstantExecutionTime(microseconds(5), operations=500.0)
        assert model.duration(0, None) == microseconds(5)
        assert model.duration(99, DataToken(0, {"size": 1000})) == microseconds(5)
        assert model.operations(0, None) == 500.0

    def test_validation(self):
        with pytest.raises(ModelError):
            ConstantExecutionTime("not a duration")
        with pytest.raises(ModelError):
            ConstantExecutionTime(Duration(-1))


class TestPerUnitExecutionTime:
    def test_affine_in_the_size_attribute(self):
        model = PerUnitExecutionTime(
            microseconds(1), nanoseconds(10), attribute="size",
            operations_per_unit=2.0, base_operations=5.0,
        )
        token = DataToken(0, {"size": 100})
        assert model.duration(0, token) == microseconds(2)
        assert model.operations(0, token) == 205.0

    def test_missing_attribute_uses_default(self):
        model = PerUnitExecutionTime(microseconds(1), nanoseconds(10), default_units=4)
        assert model.duration(0, None) == microseconds(1) + nanoseconds(40)
        assert model.duration(0, DataToken(0)) == microseconds(1) + nanoseconds(40)

    def test_invalid_attribute_value_rejected(self):
        model = PerUnitExecutionTime(microseconds(1), nanoseconds(10))
        with pytest.raises(ModelError):
            model.duration(0, DataToken(0, {"size": -3}))
        with pytest.raises(ModelError):
            model.duration(0, DataToken(0, {"size": "big"}))


class TestTableExecutionTime:
    def test_cyclic_lookup(self):
        model = TableExecutionTime([microseconds(1), microseconds(2)], operations=[10, 20])
        assert model.duration(0, None) == microseconds(1)
        assert model.duration(3, None) == microseconds(2)
        assert model.operations(2, None) == 10

    def test_clamped_lookup(self):
        model = TableExecutionTime([microseconds(1), microseconds(2)], cyclic=False)
        assert model.duration(10, None) == microseconds(2)

    def test_validation(self):
        with pytest.raises(ModelError):
            TableExecutionTime([])
        with pytest.raises(ModelError):
            TableExecutionTime([microseconds(1)], operations=[1, 2])
        with pytest.raises(ModelError):
            TableExecutionTime([Duration(-1)])


class TestDataDependentExecutionTime:
    def test_callable_drives_duration_and_operations(self):
        model = DataDependentExecutionTime(
            lambda k, token: microseconds(k + token.get("size", 0)),
            operations_fn=lambda k, token: 3.0 * k,
        )
        assert model.duration(2, DataToken(0, {"size": 5})) == microseconds(7)
        assert model.operations(4, None) == 12.0

    def test_bad_return_values_rejected(self):
        model = DataDependentExecutionTime(lambda k, token: 5)
        with pytest.raises(ModelError):
            model.duration(0, None)
        negative = DataDependentExecutionTime(lambda k, token: Duration(-1))
        with pytest.raises(ModelError):
            negative.duration(0, None)
        with pytest.raises(ModelError):
            DataDependentExecutionTime("not callable")


class TestStochasticExecutionTime:
    def test_same_instance_gives_identical_sequences_to_both_models(self):
        model = StochasticExecutionTime(microseconds(1), microseconds(10), seed=5)
        first_pass = [model.duration(k, None) for k in range(20)]
        second_pass = [model.duration(k, None) for k in range(20)]
        assert first_pass == second_pass

    def test_sequence_is_independent_of_query_order(self):
        a = StochasticExecutionTime(microseconds(1), microseconds(10), seed=11)
        b = StochasticExecutionTime(microseconds(1), microseconds(10), seed=11)
        forward = [a.duration(k, None) for k in range(10)]
        backward = [b.duration(k, None) for k in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_samples_stay_within_bounds(self):
        model = StochasticExecutionTime(microseconds(2), microseconds(3), seed=1)
        for k in range(50):
            assert microseconds(2) <= model.duration(k, None) <= microseconds(3)

    def test_validation(self):
        with pytest.raises(ModelError):
            StochasticExecutionTime()
        with pytest.raises(ModelError):
            StochasticExecutionTime(microseconds(5), microseconds(1))
        bad_sampler = StochasticExecutionTime(sampler=lambda rng: 42)
        with pytest.raises(ModelError):
            bad_sampler.duration(0, None)


class TestCycleAccurateExecutionTime:
    def test_cycles_divided_by_frequency(self):
        model = CycleAccurateExecutionTime(
            cycles_fn=lambda k, token: 1000,
            frequency_hz=1e9,
            operations_fn=lambda k, token: 2000.0,
        )
        assert model.duration(0, None) == microseconds(1)
        assert model.operations(0, None) == 2000.0

    def test_validation(self):
        with pytest.raises(ModelError):
            CycleAccurateExecutionTime(lambda k, token: 1, frequency_hz=0)
        model = CycleAccurateExecutionTime(lambda k, token: -5, frequency_hz=1e9)
        with pytest.raises(ModelError):
            model.duration(0, None)


class TestInputValidation:
    """Constructor arguments and token attributes are type-checked up front."""

    def test_boolean_units_are_rejected(self):
        model = PerUnitExecutionTime(microseconds(1), nanoseconds(10))
        token = DataToken(0, {"size": True})
        for query in (model.duration, model.duration_ps, model.operations):
            with pytest.raises(ModelError, match="non-negative integer"):
                query(0, token)
        with pytest.raises(ModelError, match="default_units"):
            PerUnitExecutionTime(microseconds(1), nanoseconds(10), default_units=True)
        with pytest.raises(ModelError, match="default_units"):
            PerUnitExecutionTime(microseconds(1), nanoseconds(10), default_units=-1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PerUnitExecutionTime(5, Duration(1)),
            lambda: PerUnitExecutionTime(Duration(1), 2.5),
            lambda: PerUnitExecutionTime(Duration(1), Duration(-1)),
            lambda: StochasticExecutionTime(5, Duration(1)),
            lambda: StochasticExecutionTime(Duration(1), 7),
            lambda: StochasticExecutionTime(Duration(-1), Duration(1)),
            lambda: TableExecutionTime([microseconds(1), 3]),
            lambda: ConstantExecutionTime(1000),
        ],
        ids=[
            "per-unit-int-base",
            "per-unit-float-per-unit",
            "per-unit-negative",
            "stochastic-int-low",
            "stochastic-int-high",
            "stochastic-negative-low",
            "table-int-entry",
            "constant-int",
        ],
    )
    def test_non_duration_arguments_are_model_errors(self, build):
        with pytest.raises(ModelError):
            build()

    def test_user_values_are_still_checked_on_every_call(self):
        calls = iter([microseconds(1), 5])
        model = DataDependentExecutionTime(lambda k, token: next(calls))
        assert model.duration_ps(0, None) == 1_000_000
        with pytest.raises(ModelError):
            model.duration_ps(1, None)
        draws = iter([microseconds(2), Duration(-3)])
        sampled = StochasticExecutionTime(sampler=lambda rng: next(draws))
        assert sampled.duration_ps(0, None) == 2_000_000
        with pytest.raises(ModelError):
            sampled.duration_ps(1, None)


def _tokens():
    """A few tokens covering absent, zero and large data attributes."""
    yield None
    yield DataToken(0)
    for index, (size, blocks, bits) in enumerate(
        [(0, 6, 2), (1, 25, 4), (37, 50, 6), (1200, 100, 6), (99_991, 15, 2)]
    ):
        yield DataToken(index, {"size": size, "resource_blocks": blocks, "bits_per_symbol": bits})


def _integer_models():
    """(label, model, legacy oracle) for every workload class.

    The oracle recomputes each duration the way the Duration-valued
    implementations did, so the integer path must match it bit for bit.
    """
    from repro.archmodel import KindScaledExecutionTime, bind_workload
    from repro.archmodel.platform import ProcessingResource, ResourceKind
    from repro.lte.workloads import _decoder_rate, lte_function_loads, lte_workload_models

    base, per_unit = microseconds(1.25), nanoseconds(3.5)
    per_unit_model = PerUnitExecutionTime(base, per_unit, default_units=3)

    def per_unit_oracle(k, t):
        return base + per_unit * (3 if t is None else t.get("size", 3))

    yield "per-unit", per_unit_model, per_unit_oracle
    yield "constant", ConstantExecutionTime(nanoseconds(7)), lambda k, t: nanoseconds(7)
    table = [microseconds(1), Duration(0), Duration(123_457)]
    yield (
        "table",
        TableExecutionTime(table, cyclic=False),
        lambda k, t: table[min(k, 2)],
    )
    yield (
        "data-dependent",
        DataDependentExecutionTime(lambda k, t: nanoseconds(k * 1.5)),
        lambda k, t: nanoseconds(k * 1.5),
    )
    for frequency in (1e9, 3.3e8, 7.77e8):
        yield (
            f"cycle-accurate@{frequency:g}",
            CycleAccurateExecutionTime(lambda k, t: 1000 * k + 333, frequency),
            lambda k, t, f=frequency: Duration.from_seconds((1000 * k + 333) / f),
        )
    loads = lte_function_loads()
    for name, model in lte_workload_models().items():

        def lte_oracle(k, t, load=loads[name], variable=name == "ChannelDecoding"):
            if variable:
                return Duration.from_seconds(load.operations(t) / _decoder_rate(t))
            return load.duration(t)

        yield f"lte:{name}", model, lte_oracle
    scaled = KindScaledExecutionTime(
        per_unit_model,
        {ResourceKind.DSP: 1.0, ResourceKind.PROCESSOR: 2.5, ResourceKind.HARDWARE: 0.37},
        reference_frequency_hz=1e9,
    )
    for kind, frequency in [
        (ResourceKind.DSP, 1e9),
        (ResourceKind.PROCESSOR, 8e8),
        (ResourceKind.PROCESSOR, 1.3e9),
        (ResourceKind.HARDWARE, 3e8),
    ]:
        resource = ProcessingResource("R", 1, frequency, kind)
        factor = scaled.factor_for(resource)
        yield (
            f"kind-scaled:{kind.value}@{frequency:g}",
            bind_workload(scaled, resource),
            lambda k, t, factor=factor: Duration(
                round(per_unit_oracle(k, t).picoseconds * factor)
            ),
        )
    constant_scaled = KindScaledExecutionTime(ConstantExecutionTime(nanoseconds(9)), {"dsp": 1.7})
    yield (
        "kind-scaled-constant",
        constant_scaled.bind(ProcessingResource("D", 1, 1e9, ResourceKind.DSP)),
        lambda k, t: Duration(round(9000 * 1.7)),
    )


class TestIntegerPicosecondContract:
    """``duration_ps`` is the one primitive; ``duration`` wraps it exactly."""

    @pytest.mark.parametrize(
        "label,model,oracle",
        [pytest.param(*case, id=case[0]) for case in _integer_models()],
    )
    def test_duration_ps_equals_duration_and_the_legacy_value(self, label, model, oracle):
        for token in _tokens():
            for k in (0, 1, 2, 5, 17):
                ps = model.duration_ps(k, token)
                assert type(ps) is int
                assert model.duration(k, token).picoseconds == ps
                assert oracle(k, token).picoseconds == ps, (label, k, token)

    @pytest.mark.parametrize("integer_first", [True, False])
    def test_stochastic_instance_shared_by_two_models_in_either_order(self, integer_first):
        reference = StochasticExecutionTime(nanoseconds(1), microseconds(4), seed=23)
        expected = [reference.duration(k, None).picoseconds for k in range(40)]
        shared = StochasticExecutionTime(nanoseconds(1), microseconds(4), seed=23)

        # One model reads integers forwards, the other Durations backwards.
        def integer_model():
            return [shared.duration_ps(k, None) for k in range(40)]

        def duration_model():
            return [shared.duration(k, None).picoseconds for k in reversed(range(40))][::-1]

        models = [integer_model, duration_model]
        if not integer_first:
            models.reverse()
        for model in models:
            assert model() == expected
