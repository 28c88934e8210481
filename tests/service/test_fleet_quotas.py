"""Tenant admission: token buckets and stride-scheduled fair share."""

from __future__ import annotations

import pytest

from repro.service.quotas import FairShareQueue, TenantPolicy, TokenBucket


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTenantPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy(weight=0)
        with pytest.raises(ValueError):
            TenantPolicy(rate=-1.0)
        with pytest.raises(ValueError):
            TenantPolicy(burst=0)


class TestTokenBucket:
    def test_burst_then_refusal_with_exact_wait(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
        assert [bucket.try_take()[0] for _ in range(3)] == [True] * 3
        ok, wait = bucket.try_take()
        assert not ok
        assert wait == pytest.approx(0.5)  # one token at 2/s

    def test_refill_restores_admission(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1, clock=clock)
        assert bucket.try_take()[0]
        assert not bucket.try_take()[0]
        clock.advance(0.5)
        assert bucket.try_take()[0]

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(60.0)  # a long idle period banks at most `burst`
        assert bucket.try_take()[0]
        assert bucket.try_take()[0]
        assert not bucket.try_take()[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


def make_queue(policies: dict[str, TenantPolicy]) -> FairShareQueue:
    return FairShareQueue(lambda t: policies.get(t, TenantPolicy()))


class TestFairShareQueue:
    def test_weighted_dequeue_order_is_deterministic(self):
        queue = make_queue({"a": TenantPolicy(weight=1.0), "b": TenantPolicy(weight=2.0)})
        for i in range(4):
            queue.push("a", f"a{i}")
        for i in range(8):
            queue.push("b", f"b{i}")
        order = [queue.pop(timeout=1)[0] for _ in range(12)]
        # Stride scheduling: weight-2 tenant b drains twice per a turn,
        # ties broken by name — exactly this sequence, every run.
        assert order == ["a", "b", "b"] * 4

    def test_idle_tenant_banks_no_credit(self):
        queue = make_queue({})
        for i in range(4):
            queue.push("a", i)
        assert queue.pop(timeout=1)[0] == "a"
        assert queue.pop(timeout=1)[0] == "a"
        # b arrives late; it enters at the current virtual time and
        # alternates instead of cashing in its idle period.
        queue.push("b", 0)
        queue.push("b", 1)
        order = [queue.pop(timeout=1)[0] for _ in range(4)]
        assert order == ["a", "b", "a", "b"]

    def test_fifo_within_a_tenant(self):
        queue = make_queue({})
        for i in range(3):
            queue.push("t", i)
        assert [queue.pop(timeout=1)[1] for _ in range(3)] == [0, 1, 2]

    def test_pop_timeout_returns_none(self):
        queue = make_queue({})
        assert queue.pop(timeout=0.05) is None

    def test_close_drains_backlog_then_none(self):
        queue = make_queue({})
        queue.push("t", "queued")
        queue.close()
        assert queue.pop(timeout=1) == ("t", "queued")
        assert queue.pop(timeout=1) is None
        with pytest.raises(RuntimeError):
            queue.push("t", "late")

    def test_depth_accounting(self):
        queue = make_queue({})
        queue.push("a", 1)
        queue.push("a", 2)
        queue.push("b", 3)
        assert queue.depth() == 3
        assert queue.depths() == {"a": 2, "b": 1}
        assert sorted(queue.pop(timeout=1) for _ in range(3)) == [("a", 1), ("a", 2), ("b", 3)]
        assert queue.depth() == 0
