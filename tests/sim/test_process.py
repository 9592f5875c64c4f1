"""Unit + property tests for processes, including pause/resume."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import Event, Timeout
from repro.sim.process import Process, ProcessState


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_process_runs_and_completes():
    sim = Simulator()
    log = []

    def worker():
        log.append(sim.now)
        yield Timeout(2.0)
        log.append(sim.now)
        return "done"

    proc = sim.spawn(worker(), name="w")
    sim.run_until(5.0)
    assert log == [0.0, 2.0]
    assert proc.state is ProcessState.DONE
    assert proc.result == "done"
    assert proc.done_event.fired


def test_process_waits_on_event_and_receives_value():
    sim = Simulator()
    event = Event(sim)
    got = []

    def worker():
        value = yield event
        got.append(value)

    sim.spawn(worker())
    sim.schedule(3.0, lambda: event.fire("payload"))
    sim.run_until(4.0)
    assert got == ["payload"]


def test_process_join_another_process():
    sim = Simulator()
    order = []

    def child():
        yield Timeout(2.0)
        order.append("child")
        return 42

    def parent():
        child_proc = sim.spawn(child(), name="child")
        result = yield child_proc
        order.append(("parent", result))

    sim.spawn(parent(), name="parent")
    sim.run_until(5.0)
    assert order == ["child", ("parent", 42)]


def test_pause_freezes_remaining_sleep():
    sim = Simulator()
    wake_times = []

    def worker():
        yield Timeout(10.0)
        wake_times.append(sim.now)

    proc = sim.spawn(worker())
    sim.run_until(4.0)
    proc.pause()
    sim.run_until(20.0)  # paused across the original deadline
    assert wake_times == []
    proc.resume()
    sim.run_until(30.0)
    # 6 seconds of sleep remained at pause time
    assert wake_times == [26.0]


def test_pause_resume_idempotent():
    sim = Simulator()

    def worker():
        yield Timeout(5.0)

    proc = sim.spawn(worker())
    sim.run_until(1.0)
    proc.pause()
    proc.pause()
    proc.resume()
    proc.resume()
    sim.run_until(10.0)
    assert proc.state is ProcessState.DONE


def test_event_fired_while_paused_delivered_on_resume():
    sim = Simulator()
    event = Event(sim)
    got = []

    def worker():
        value = yield event
        got.append((sim.now, value))
        # The delivery came through a one-off timer; the next sleep must
        # wake through the process's own, not re-arm that one.
        slept = yield Timeout(1.0)
        got.append((sim.now, slept))

    proc = sim.spawn(worker())
    sim.run_until(1.0)
    proc.pause()
    event.fire("late")
    sim.run_until(5.0)
    assert got == []
    proc.resume()
    sim.run_until(5.5)
    assert got == [(5.0, "late")]
    sim.run_until(9.0)
    assert got == [(5.0, "late"), (6.0, None)]


def test_kill_stops_process_and_fires_done():
    sim = Simulator()

    def worker():
        yield Timeout(100.0)

    proc = sim.spawn(worker())
    sim.run_until(1.0)
    proc.kill()
    assert proc.state is ProcessState.KILLED
    assert proc.done_event.fired
    sim.run_until(200.0)
    assert proc.state is ProcessState.KILLED


def test_kill_idempotent():
    sim = Simulator()

    def worker():
        yield Timeout(10.0)

    proc = sim.spawn(worker())
    sim.run_until(1.0)
    proc.kill()
    proc.kill()


def test_generator_finally_runs_on_kill():
    sim = Simulator()
    cleaned = []

    def worker():
        try:
            yield Timeout(100.0)
        finally:
            cleaned.append(True)

    proc = sim.spawn(worker())
    sim.run_until(1.0)
    proc.kill()
    assert cleaned == [True]


def test_yielding_garbage_kills_process():
    sim = Simulator()

    def worker():
        yield "nonsense"

    sim.spawn(worker())
    with pytest.raises(TypeError):
        sim.run_until(1.0)


def test_pause_before_first_step_delays_start():
    sim = Simulator()
    log = []

    def worker():
        log.append(sim.now)
        yield Timeout(1.0)

    proc = sim.spawn(worker())
    proc.pause()  # pause before the 0-delay start fires
    sim.run_until(5.0)
    assert log == []
    proc.resume()
    sim.run_until(6.0)
    assert log == [5.0]


@settings(max_examples=30, deadline=None)
@given(
    sleeps=st.lists(st.floats(min_value=0.01, max_value=10.0),
                    min_size=1, max_size=6),
    pause_at=st.floats(min_value=0.0, max_value=20.0),
    pause_for=st.floats(min_value=0.0, max_value=20.0),
)
def test_pause_preserves_total_work_time(sleeps, pause_at, pause_for):
    """Property: pausing shifts completion by exactly the pause length
    when the pause lands strictly inside the process's active life."""
    total = sum(sleeps)

    def run(with_pause):
        sim = Simulator()
        done = []

        def worker():
            for s in sleeps:
                yield Timeout(s)
            done.append(sim.now)

        proc = sim.spawn(worker())
        if with_pause:
            sim.schedule(pause_at, proc.pause)
            sim.schedule(pause_at + pause_for, proc.resume)
        sim.run_until(total + pause_at + pause_for + 1.0)
        return done[0] if done else None

    base = run(False)
    paused = run(True)
    assert base == pytest.approx(total)
    if pause_at < total:
        assert paused == pytest.approx(base + pause_for)
    elif pause_at == total:
        # Boundary: the pause and the final wakeup race at the same
        # instant; either ordering is legitimate.
        assert paused in (pytest.approx(base),
                          pytest.approx(base + pause_for))
    else:
        assert paused == pytest.approx(base)
