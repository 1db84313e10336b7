import pytest

from perfbench import bench
from perfbench.calib import CalibratedClock


class FakeReference:
    """Reference whose iteration takes 0, 1, 2, ... units, one per chunk."""

    def __init__(self):
        self.chunks = -1

    def seconds(self, iterations):
        self.chunks += 1
        return float(self.chunks)


def test_calibrated_time_scales_by_nominal_over_the_mean_reference(monkeypatch):
    clock = CalibratedClock(FakeReference(), iterations=5, nominal=3.0)
    ticks = iter([10.0, 12.0, 20.0, 26.0])
    monkeypatch.setattr("perfbench.calib.time.perf_counter", lambda: next(ticks))
    # chunk 0 warms up, chunk 1 before, chunk 2 after: wall 2 at reference
    # 1.5 -> 2 * 3 / 1.5
    assert clock.time(lambda: "a") == ("a", 2.0, pytest.approx(4.0))
    # chunk 2 is reused before, chunk 3 after: wall 6 at reference 2.5
    assert clock.time(lambda: "b") == ("b", 6.0, pytest.approx(7.2))
    assert clock.ref_seconds == [1.0, 2.0, 3.0]


def test_a_raising_operation_still_closes_its_chunk():
    clock = CalibratedClock(FakeReference(), iterations=1, nominal=1.0)

    def boom():
        raise ValueError("x")
    with pytest.raises(ValueError):
        clock.time(boom)
    assert clock.ref_seconds == [1.0, 2.0]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_reference_kernel_is_finite_on_every_workload_shape(name):
    ref = bench.reference(bench.WORKLOADS[name])
    assert ref.seconds(3) > 0.0
    assert all(abs(ref.iteration()) < 1e6 for _ in range(20))
