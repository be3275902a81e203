"""Calibration arithmetic against an injected fake clock."""

import pytest

from calibrate import CAL_NOMINAL_S, LONG_OP_S, RESAMPLE_AFTER_S, CalibratedTimer


class FakeMachine:
    """A clock that only moves when the kernel or an op says so."""

    def __init__(self, kernel_durations):
        self.now = 100.0
        self._kernel_durations = iter(kernel_durations)

    def clock(self):
        return self.now

    def kernel(self):
        self.now += next(self._kernel_durations)

    def op(self, duration, value=None):
        def fn():
            self.now += duration
            return value

        return fn


def timer_on(machine):
    return CalibratedTimer(clock=machine.clock, kernel=machine.kernel)


def test_op_time_is_wall_over_the_mean_of_the_bracketing_samples():
    machine = FakeMachine([0.004, 0.008])
    timer = timer_on(machine)
    value, timing = timer.run(machine.op(0.030, "answer"))
    assert value == "answer"
    assert timing.wall == pytest.approx(0.030)
    # 30 ms > LONG_OP_S, so the closing sample was taken right after it.
    assert timer.samples == pytest.approx([0.004, 0.008])
    assert timer.seconds(timing) == pytest.approx(0.030 * CAL_NOMINAL_S / 0.006)


def test_a_machine_twice_as_slow_reads_the_same():
    fast, slow = FakeMachine([0.004] * 2), FakeMachine([0.008] * 2)
    t_fast, t_slow = timer_on(fast), timer_on(slow)
    _, a = t_fast.run(fast.op(0.1))
    _, b = t_slow.run(slow.op(0.2))
    assert t_fast.seconds(a) == pytest.approx(t_slow.seconds(b))
    assert t_fast.seconds(a) == pytest.approx(0.1)


def test_short_ops_share_a_bracket_until_enough_work_has_passed():
    machine = FakeMachine([0.004, 0.005, 0.006])
    timer = timer_on(machine)
    short = LONG_OP_S * 0.6
    timings = []
    while len(timer.samples) == 1:
        timings.append(timer.run(machine.op(short))[1])
    # The sample came once the accumulated work reached the threshold.
    assert len(timings) * short >= RESAMPLE_AFTER_S > (len(timings) - 1) * short
    assert {t.left for t in timings} == {0}
    _, after = timer.run(machine.op(short))
    assert after.left == 1
    timer.flush()
    assert len(timer.samples) == 3
    assert timer.seconds(after) == pytest.approx(short * CAL_NOMINAL_S / 0.0055)
    timer.flush()  # nothing measured since: no extra sample
    assert len(timer.samples) == 3


def test_a_raising_op_is_kept_on_its_timing():
    machine = FakeMachine([0.004, 0.004])
    timer = timer_on(machine)

    def boom():
        machine.now += 0.001
        raise ValueError("no such table")

    value, timing = timer.run(boom)
    assert value is None
    assert isinstance(timing.error, ValueError)
    assert timing.wall == pytest.approx(0.001)


def test_the_collector_is_off_inside_the_kernel_and_back_on_after():
    import gc

    seen = []
    machine = FakeMachine([0.004] * 2)

    def kernel():
        seen.append(gc.isenabled())
        machine.kernel()

    assert gc.isenabled()
    timer = CalibratedTimer(clock=machine.clock, kernel=kernel)
    timer.run(machine.op(0.030))
    assert seen == [False, False]
    assert gc.isenabled()
