"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.kernel import ProcessState, Simulator
from repro.kernel.simtime import ZERO_DURATION, Duration, Time, microseconds


class TestEvents:
    def test_timed_notification_resumes_waiter_at_the_right_time(self, simulator):
        log = []
        event = simulator.create_event("go")

        def waiter():
            yield event
            log.append(simulator.now)

        def notifier():
            yield microseconds(3)
            event.notify(microseconds(2))

        simulator.spawn(waiter)
        simulator.spawn(notifier)
        simulator.run()
        assert log == [Time.from_microseconds(5)]

    def test_delta_notification_does_not_advance_time(self, simulator):
        log = []
        event = simulator.create_event()

        def waiter():
            yield event
            log.append(simulator.now)

        def notifier():
            yield microseconds(1)
            event.notify_immediate()

        simulator.spawn(waiter)
        simulator.spawn(notifier)
        simulator.run()
        assert log == [Time.from_microseconds(1)]

    def test_notification_wakes_every_waiter(self, simulator):
        woken = []
        event = simulator.create_event()

        def waiter(name):
            yield event
            woken.append(name)

        for name in ("a", "b", "c"):
            simulator.spawn(waiter, name, name=name)

        def notifier():
            yield microseconds(1)
            event.notify_immediate()

        simulator.spawn(notifier)
        simulator.run()
        assert sorted(woken) == ["a", "b", "c"]
        assert event.notify_count == 1

    def test_negative_delay_rejected(self, simulator):
        event = simulator.create_event()
        with pytest.raises(SimulationError):
            event.notify(Duration(-1))

    def test_notify_requires_duration(self, simulator):
        event = simulator.create_event()
        with pytest.raises(TypeError):
            event.notify(5)

    def test_waiting_process_count(self, simulator):
        event = simulator.create_event()

        def waiter():
            yield event

        simulator.spawn(waiter)
        simulator.run()
        assert event.waiting_processes == 1


class TestProcesses:
    def test_wait_for_duration_advances_time(self, simulator):
        log = []

        def process():
            yield microseconds(10)
            log.append(simulator.now)
            yield microseconds(5)
            log.append(simulator.now)

        simulator.spawn(process)
        simulator.run()
        assert log == [Time.from_microseconds(10), Time.from_microseconds(15)]

    def test_yield_none_waits_one_delta_cycle(self, simulator):
        order = []

        def first():
            order.append("first-before")
            yield None
            order.append("first-after")

        def second():
            order.append("second")
            yield microseconds(1)

        simulator.spawn(first)
        simulator.spawn(second)
        simulator.run()
        assert order.index("second") < order.index("first-after")

    def test_wait_any_returns_firing_event(self, simulator):
        result = []
        fast = simulator.create_event("fast")
        slow = simulator.create_event("slow")

        def waiter():
            fired = yield (fast, slow)
            result.append(fired)

        def driver():
            yield microseconds(1)
            fast.notify_immediate()
            yield microseconds(1)
            slow.notify_immediate()

        simulator.spawn(waiter)
        simulator.spawn(driver)
        simulator.run()
        assert result == [fast]

    def test_process_terminates_when_generator_returns(self, simulator):
        def process():
            yield microseconds(1)

        handle = simulator.spawn(process)
        simulator.run()
        assert handle.terminated
        assert handle.state is ProcessState.TERMINATED

    def test_process_exception_propagates_and_marks_faulted(self, simulator):
        def process():
            yield microseconds(1)
            raise ValueError("boom")

        handle = simulator.spawn(process)
        with pytest.raises(ValueError, match="boom"):
            simulator.run()
        assert handle.state is ProcessState.FAULTED

    def test_invalid_wait_request_rejected(self, simulator):
        def process():
            yield "not a wait request"

        simulator.spawn(process)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_negative_wait_rejected(self, simulator):
        def process():
            yield Duration(-5)

        simulator.spawn(process)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_empty_event_collection_rejected(self, simulator):
        def process():
            yield ()

        simulator.spawn(process)
        with pytest.raises(SimulationError):
            simulator.run()

    def test_spawn_requires_generator(self, simulator):
        with pytest.raises(SimulationError):
            simulator.spawn(lambda: 42)

    def test_spawn_generator_instance_with_args_rejected(self, simulator):
        def gen():
            yield microseconds(1)

        with pytest.raises(SimulationError):
            simulator.spawn(gen(), 1, 2)

    def test_activation_count_tracks_context_switches(self, simulator):
        def process():
            yield microseconds(1)
            yield microseconds(1)

        handle = simulator.spawn(process)
        simulator.run()
        assert handle.activation_count == 3  # initial + two resumptions


class TestScheduler:
    def test_run_until_duration_stops_at_horizon(self, simulator):
        log = []

        def process():
            while True:
                yield microseconds(10)
                log.append(simulator.now.microseconds)

        simulator.spawn(process)
        simulator.run(until=microseconds(35))
        assert log == [10.0, 20.0, 30.0]
        assert simulator.now == Time.from_microseconds(35)

    def test_run_until_time_is_absolute(self, simulator):
        def process():
            while True:
                yield microseconds(10)

        simulator.spawn(process)
        simulator.run(until=Time.from_microseconds(25))
        assert simulator.now == Time.from_microseconds(25)
        simulator.run(until=Time.from_microseconds(45))
        assert simulator.now == Time.from_microseconds(45)

    def test_run_until_past_raises(self, simulator):
        def process():
            yield microseconds(10)

        simulator.spawn(process)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.run(until=Time.from_microseconds(1))

    def test_run_until_invalid_type_raises(self, simulator):
        with pytest.raises(TypeError):
            simulator.run(until=123)

    def test_run_without_processes_returns_immediately(self, simulator):
        stats = simulator.run()
        assert stats.process_activations == 0
        assert simulator.now == Time.zero()

    def test_stats_counts_timed_and_delta_notifications(self, simulator):
        event = simulator.create_event()

        def producer():
            yield microseconds(1)
            event.notify(microseconds(1))
            yield microseconds(5)
            event.notify_immediate()

        def consumer():
            yield event
            yield event

        simulator.spawn(producer)
        simulator.spawn(consumer)
        stats = simulator.run()
        # two waits of the producer + one timed event notification
        assert stats.timed_notifications == 3
        assert stats.delta_notifications == 1
        assert stats.total_notifications == 4
        assert stats.time_advances >= 3

    def test_stats_subtraction_gives_deltas(self, simulator):
        def process():
            yield microseconds(1)
            yield microseconds(1)

        simulator.spawn(process)
        before = simulator.stats()
        after = simulator.run()
        delta = after - before
        assert delta.timed_notifications == 2
        assert delta.as_dict()["timed_notifications"] == 2

    def test_zero_delay_loop_detected(self):
        simulator = Simulator("loop", max_delta_cycles_per_timestep=100)
        event_a = simulator.create_event()
        event_b = simulator.create_event()

        def ping():
            while True:
                event_b.notify_immediate()
                yield event_a

        def pong():
            while True:
                event_a.notify_immediate()
                yield event_b

        simulator.spawn(ping)
        simulator.spawn(pong)
        with pytest.raises(SimulationError, match="delta cycles"):
            simulator.run()

    def test_simultaneous_events_all_fire_in_one_time_advance(self, simulator):
        log = []

        def process(name):
            yield microseconds(5)
            log.append((name, simulator.now.microseconds))

        for name in ("a", "b"):
            simulator.spawn(process, name, name=name)
        stats = simulator.run()
        assert log == [("a", 5.0), ("b", 5.0)]
        assert stats.time_advances == 1

    def test_processes_property_lists_all_spawned(self, simulator):
        def process():
            yield microseconds(1)

        simulator.spawn(process, name="p0")
        simulator.spawn(process, name="p1")
        assert [p.name for p in simulator.processes] == ["p0", "p1"]


class _SubDuration(Duration):
    """A Duration subclass: takes the general dispatch path, not the exact-type one."""

    __slots__ = ()


class TestFastPathContract:
    """Wait dispatch and integer time keep the behaviour of the general path."""

    def test_yielding_a_time_is_rejected_with_the_same_message(self, simulator):
        def process():
            yield Time.from_microseconds(1)

        simulator.spawn(process, name="p")
        with pytest.raises(SimulationError) as info:
            simulator.run()
        assert str(info.value) == "process 'p' yielded an unsupported wait request of type Time"

    def test_negative_duration_message(self, simulator):
        def process():
            yield Duration(-5)

        simulator.spawn(process, name="p")
        with pytest.raises(SimulationError) as info:
            simulator.run()
        assert str(info.value) == "process 'p' waited for a negative duration"

    def test_negative_duration_subclass_rejected(self, simulator):
        def process():
            yield _SubDuration(-5)

        simulator.spawn(process, name="p")
        with pytest.raises(SimulationError, match="negative duration"):
            simulator.run()

    def test_duration_subclass_is_honoured(self, simulator):
        log = []

        def process():
            yield _SubDuration(7)
            log.append(simulator.now_ps)

        simulator.spawn(process)
        stats = simulator.run()
        assert log == [7]
        assert stats.timed_notifications == 1

    @pytest.mark.parametrize("collection", [list, set, frozenset, tuple])
    def test_event_collections_are_honoured(self, simulator, collection):
        result = []
        fast = simulator.create_event("fast")
        slow = simulator.create_event("slow")

        def waiter():
            fired = yield collection((fast, slow))
            result.append((fired, simulator.now_ps))

        def driver():
            yield Duration(3)
            slow.notify_immediate()
            yield Duration(3)
            fast.notify_immediate()

        simulator.spawn(waiter)
        simulator.spawn(driver)
        simulator.run()
        assert result == [(slow, 3)]
        assert fast.waiting_processes == 0

    def test_invalid_collection_message(self, simulator):
        def process():
            yield [simulator.create_event(), "not an event"]

        simulator.spawn(process, name="p")
        with pytest.raises(SimulationError) as info:
            simulator.run()
        assert str(info.value) == (
            "process 'p' yielded an invalid wait request: "
            "collections must contain only Event instances and be non-empty"
        )

    def test_raise_mid_delta_cycle_faults_and_counts_the_activation(self, simulator):
        first = simulator.create_event("first")
        second = simulator.create_event("second")
        log = []

        def bystander():
            yield first
            log.append(simulator.now.picoseconds)

        def victim():
            yield second
            raise ValueError("boom")

        def notifier():
            yield Duration(1)
            first.notify_immediate()  # fires first, so the bystander runs first
            second.notify_immediate()

        simulator.spawn(bystander, name="bystander")
        faulty = simulator.spawn(victim, name="victim")
        simulator.spawn(notifier, name="notifier")
        with pytest.raises(ValueError, match="boom"):
            simulator.run()
        assert faulty.state is ProcessState.FAULTED
        assert faulty.terminated
        assert faulty.activation_count == 2
        assert log == [1]
        stats = simulator.stats()
        # 3 initial activations, the notifier's resume, then the bystander's
        # and the victim's in one delta cycle.
        assert stats.process_activations == 6
        assert stats.delta_cycles == 3
        assert (stats.timed_notifications, stats.delta_notifications) == (1, 2)

    def test_processes_queued_behind_a_fault_still_run(self, simulator):
        # The victim and the bystander wake in one delta cycle, victim first:
        # after the victim's ValueError, the next run() resumes the bystander.
        first = simulator.create_event("first")
        second = simulator.create_event("second")
        log = []

        def victim():
            yield first
            raise ValueError("boom")

        def bystander():
            yield second
            log.append(simulator.now.picoseconds)

        def notifier():
            yield Duration(1)
            first.notify_immediate()  # fires first, so the victim runs first
            second.notify_immediate()

        faulty = simulator.spawn(victim, name="victim")
        waiting = simulator.spawn(bystander, name="bystander")
        simulator.spawn(notifier, name="notifier")
        with pytest.raises(ValueError, match="boom"):
            simulator.run()
        assert faulty.state is ProcessState.FAULTED
        assert waiting.activation_count == 1 and log == []
        simulator.run()
        assert waiting.activation_count == 2
        assert waiting.terminated and log == [1]
        assert faulty.activation_count == 2

    def test_faulted_process_is_never_resumed(self, simulator):
        event = simulator.create_event()

        def victim():
            yield event
            raise ValueError("boom")

        def notifier():
            yield Duration(1)
            event.notify_immediate()
            yield Duration(1)
            event.notify_immediate()

        faulty = simulator.spawn(victim)
        simulator.spawn(notifier)
        with pytest.raises(ValueError):
            simulator.run()
        simulator.run()
        assert faulty.activation_count == 2

    def test_notify_immediate_equals_notify_zero(self):
        def run(notify):
            simulator = Simulator("n")
            event = simulator.create_event()
            log = []

            def waiter():
                for _ in range(3):
                    yield event
                    log.append(simulator.now_ps)

            def notifier():
                for _ in range(3):
                    yield Duration(2)
                    notify(event)

            simulator.spawn(waiter)
            simulator.spawn(notifier)
            return simulator.run(), log, event.notify_count

        immediate = run(lambda event: event.notify_immediate())
        zero = run(lambda event: event.notify(ZERO_DURATION))
        assert immediate == zero
        assert immediate[0].delta_notifications == 3

    def test_notify_keeps_its_argument_checks(self, simulator):
        event = simulator.create_event("e")
        with pytest.raises(TypeError, match="expects a Duration"):
            event.notify(Time(5))
        with pytest.raises(SimulationError, match="in the past"):
            event.notify(Duration(-1))
        assert simulator.stats().total_notifications == 0

    def test_now_ps_matches_now_after_run_until_duration(self, simulator):
        def process():
            while True:
                yield microseconds(10)

        simulator.spawn(process)
        simulator.run(until=microseconds(35))
        assert isinstance(simulator.now, Time)
        assert simulator.now_ps == simulator.now.picoseconds == 35_000_000

    def test_now_ps_matches_now_after_run_until_time(self, simulator):
        def process():
            while True:
                yield microseconds(10)

        simulator.spawn(process)
        simulator.run(until=Time.from_microseconds(25))
        assert simulator.now_ps == simulator.now.picoseconds == 25_000_000

    def test_now_ps_matches_now_after_an_idle_horizon(self, simulator):
        simulator.run(until=microseconds(4))
        assert simulator.now_ps == simulator.now.picoseconds == 4_000_000
        simulator.run(until=Time.from_microseconds(9))
        assert simulator.now_ps == simulator.now.picoseconds == 9_000_000
