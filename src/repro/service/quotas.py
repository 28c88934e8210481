"""Per-tenant admission: token-bucket quotas + weighted fair-share.

The scheduler prices jobs (413) and bounds its accepted set (429);
serving many tenants needs two more properties:

* **Isolation** — one tenant's submission storm must not consume the
  whole queue.  :class:`TokenBucket` rate-limits each tenant's
  *admissions* (jobs/second with a burst allowance); a refusal carries
  the exact time until the next token, which becomes the HTTP
  ``Retry-After``.
* **Weighted fairness** — among admitted jobs, dequeue order follows
  tenant weights, not arrival order.  :class:`FairShareQueue` runs
  stride scheduling: each tenant advances a virtual-time *pass* by
  ``1/weight`` per dequeue, and the lowest pass runs next.  A tenant
  idle for a while re-enters at the current virtual time instead of
  banking credit (no starvation of the tenants that kept the queue
  warm).  Stride scheduling is deterministic — same arrival order,
  same dequeue order — which keeps the tests exact.

Wall-clock use is deliberate and harness-side only (this is admission
policy, not simulation); the clock is injectable for tests.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["TenantPolicy", "TokenBucket", "FairShareQueue", "DEFAULT_TENANT"]

#: Tenant attributed to requests that do not name one.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantPolicy:
    """Admission policy for one tenant (or the default for unknowns)."""

    #: Fair-share weight: a weight-2 tenant drains twice as fast as a
    #: weight-1 tenant under contention.
    weight: float = 1.0
    #: Sustained admissions per second; ``None`` = unlimited.
    rate: float | None = None
    #: Burst allowance above the sustained rate.
    burst: int = 8

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive or None, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")


class TokenBucket:
    """Classic token bucket; refused takes report the wait for a token."""

    def __init__(self, rate: float, burst: int, *,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()
        self._lock = threading.Lock()

    def try_take(self) -> tuple[bool, float]:
        """Take one token; ``(ok, retry_after_seconds)``."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True, 0.0
            return False, (1.0 - self._tokens) / self.rate


class FairShareQueue:
    """Stride-scheduled multi-tenant queue (blocking pop, closeable).

    ``push`` never blocks (admission bounds live above this layer);
    ``pop`` blocks until an item is available or the queue is closed.
    """

    #: Stride numerator; any constant works, a large one keeps passes
    #: well-separated for fractional weights.
    STRIDE_SCALE = 1 << 20

    def __init__(self, policy_for: Callable[[str], TenantPolicy] | None = None):
        self._policy_for = policy_for or (lambda tenant: TenantPolicy())
        self._cond = threading.Condition()
        self._queues: dict[str, deque[Any]] = {}
        self._pass: dict[str, float] = {}
        self._global_pass = 0.0
        self._closed = False

    def _stride(self, tenant: str) -> float:
        return self.STRIDE_SCALE / self._policy_for(tenant).weight

    def push(self, tenant: str, item: Any) -> None:
        """Enqueue ``item`` for ``tenant`` and wake one popper."""
        with self._cond:
            if self._closed:
                raise RuntimeError("FairShareQueue is closed")
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = deque()
            if not queue:
                # An idle tenant re-enters at current virtual time: it
                # competes fairly from now on, it does not cash in the
                # idle period as burst credit.
                self._pass[tenant] = max(self._pass.get(tenant, 0.0), self._global_pass)
            queue.append(item)
            self._cond.notify()

    def pop(self, timeout: float | None = None) -> tuple[str, Any] | None:
        """Dequeue from the lowest-pass non-empty tenant; None if closed/timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                ready = [t for t, q in self._queues.items() if q]
                if ready:
                    tenant = min(ready, key=lambda t: (self._pass.get(t, 0.0), t))
                    item = self._queues[tenant].popleft()
                    new_pass = self._pass.get(tenant, 0.0) + self._stride(tenant)
                    self._pass[tenant] = new_pass
                    self._global_pass = max(self._global_pass, new_pass)
                    return tenant, item
                if self._closed:
                    return None
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def close(self) -> None:
        """Wake all poppers; subsequent pops drain the backlog then None."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def depth(self) -> int:
        """Total queued items across tenants."""
        with self._cond:
            return sum(len(q) for q in self._queues.values())

    def depths(self) -> dict[str, int]:
        """Per-tenant queued items (non-empty tenants only)."""
        with self._cond:
            return {t: len(q) for t, q in self._queues.items() if q}
