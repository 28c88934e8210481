"""Host-speed scaling: fixed reference work, timings scaled by the samples around them."""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.e2e.hostspeed import NOMINAL_S, PAD_S, HostSpeed, cpu_counters, reference
from benchmarks.e2e.workloads import median_by_position


def _loaded(tmp_path, rows) -> HostSpeed:
    """A HostSpeed over ``(t, reference CPU s, busy ticks, steal ticks)`` samples."""
    host = HostSpeed(tmp_path, 0)
    lines = [f"{t:.6f} {t + cpu:.6f} {cpu:.6f} {busy} {steal}\n" for t, cpu, busy, steal in rows]
    # The last line is torn, as when the sampler is stopped mid-write.
    host.path.write_text("".join(lines) + "99.0 99.1 0.01 5")
    host.load()
    return host


def _timeline(hardware_slow_from: float, steal_from: float, steal_share: float):
    """Samples every 0.1 s for 30 s; the vCPUs want 10 ticks per sample."""
    busy = steal = 0.0
    for i in range(300):
        t = i * 0.1
        cpu = NOMINAL_S * (2 if t >= hardware_slow_from else 1)
        share = steal_share if t >= steal_from else 0.0
        busy, steal = busy + 10 * (1 - share), steal + 10 * share
        yield t, cpu, busy, steal


def test_reference_is_fixed_work():
    assert reference() == reference() > 0


def test_counters_read_the_kernel():
    busy, steal = cpu_counters(min(os.sched_getaffinity(0)))
    assert busy > 0 and steal >= 0


def test_cpu_time_scales_by_hardware_speed_only(tmp_path):
    host = _loaded(tmp_path, _timeline(hardware_slow_from=10, steal_from=20, steal_share=0.5))
    assert host.report()["host.samples"] == 300
    assert host.scaled_cpu(1.0, 2.0, 3.0) == pytest.approx(1.0)
    # One CPU second on hardware half as fast is half a nominal second,
    # with or without steal.
    assert host.scaled_cpu(1.0, 14.0, 16.0) == pytest.approx(0.5)
    assert host.scaled_cpu(1.0, 24.0, 26.0) == pytest.approx(0.5)


def test_wall_time_also_drops_the_stolen_share(tmp_path):
    host = _loaded(tmp_path, _timeline(hardware_slow_from=99, steal_from=10, steal_share=0.5))
    assert host.steal(2.0, 3.0) == 0.0
    assert host.steal(14.0, 16.0) == pytest.approx(0.5)
    # Two wall seconds of which the hypervisor held half are one nominal second.
    assert host.scaled(14.0, 16.0) == pytest.approx(1.0)
    assert host.scaled(2.0, 4.0) == pytest.approx(2.0)


def test_samples_near_the_interval_count(tmp_path):
    host = _loaded(tmp_path, _timeline(hardware_slow_from=10, steal_from=99, steal_share=0))
    # Samples up to PAD_S after the interval count for it.
    assert host.hardware(10.0 - PAD_S, 10.0 - PAD_S / 2) < 1.0
    assert host.hardware(9.0, 11.0) == pytest.approx(1 / 1.5, rel=0.05)
    # Far from every sample, the nearest ones are used.
    assert host.hardware(60.0, 61.0) == pytest.approx(0.5)
    assert host.hardware(-5.0, -4.0) == pytest.approx(1.0)


def test_the_sampler_runs_for_the_block_and_then_stops(tmp_path):
    with HostSpeed(tmp_path, max(os.sched_getaffinity(0))) as host:
        sampler = host._proc
        time.sleep(0.3)
        assert sampler.poll() is None
    assert sampler.poll() is not None
    assert host.report()["host.samples"] >= 3
    assert host.factor(time.perf_counter() - 1, time.perf_counter()) > 0


def test_median_by_position_needs_equal_repeats():
    assert median_by_position([[1.0, 5.0], [3.0, 4.0], [2.0, 9.0]]) == [2.0, 5.0]
    with pytest.raises(ValueError):
        median_by_position([[1.0], [1.0, 2.0]])
