"""End-to-end benchmark of the simulator and of ``ksr-serve``.

Four pinned workloads, each run in its own child process against a
fresh temporary cache:

* ``sim-fig2``   — the Figure 2 memory-hierarchy sweep (memory path);
* ``sim-rest``   — every other experiment at reduced sizes (ring, locks,
  analytic kernel pricing);
* ``serve-warm`` — ``ksr-serve`` under an open loop of mostly cache hits;
* ``fleet-cold`` — ``ksr-serve --fleet 2`` under an open loop of mostly
  fresh points (routing, worker RPC, cache writes, replication).

Run ``python -m benchmarks.e2e --help`` and see
``benchmarks/e2e/README.md`` for the metrics and their bounds.
"""
