"""Phase-level cost model: work descriptors → simulated KSR time.

The paper explains every kernel result in terms of four quantities:
compute throughput, sub-cache / local-cache miss behaviour, remote
(ring) transfer counts, and ring saturation.  This module composes
exactly those terms.

A kernel phase on one processor is described by a :class:`PhaseWork`;
:class:`KernelCostModel.phase_cost` prices it:

``compute``
    flops x cycles/flop + integer/address ops x cycles/op.  The
    flop rate is calibrated so a compute-bound kernel sustains the
    ~11 MFLOPS/cell the paper measured for EP (peak is 40).
``sub-cache``
    every represented word access costs one issue cycle; each subpage
    miss fills two 64-byte sub-blocks from the local cache; each fresh
    2 KB block allocation adds the measured +50 % penalty.
``local cache``
    warm-state misses (from the frame-level StatCache model) split
    into cold first-touches (local creation) and capacity/coherence
    misses, which in a COMA machine are *remote* — evicted data lives
    in other cells' caches.
``remote``
    each remote subpage transfer pays the load-dependent ring latency
    from :class:`repro.ring.contention.RingLoadModel`; prefetching
    overlaps a caller-stated fraction of it with compute.

Barrier costs between phases come from :class:`BarrierCostModel`,
calibrated against the event-level barrier simulations of section 3.2
(see ``tests/kernels/test_costmodel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError
from repro.machine.config import MachineConfig
from repro.memory.analytic_cache import AnalyticCache
from repro.memory.streams import AccessStream
from repro.ring.contention import RingLoadModel

__all__ = ["PhaseWork", "PhaseCost", "KernelCostModel", "BarrierCostModel"]

#: Cycles per floating-point operation, pipeline-realistic rather than
#: peak: calibrated so EP sustains ~11 MFLOPS/cell at 20 MHz.
CYCLES_PER_FLOP = 1.8
#: Cycles per integer/address operation (2-wide issue).
CYCLES_PER_INT_OP = 0.5
#: Cycles per represented word access (issue + pipelined sub-cache).
CYCLES_PER_WORD_ACCESS = 1.0
#: A subpage miss in the sub-cache fills two 64 B sub-blocks.
SUBBLOCK_FILLS_PER_SUBPAGE = 2


@dataclass(frozen=True)
class PhaseWork:
    """One processor's work in one parallel phase.

    ``stream`` describes this processor's data accesses at subpage
    granularity; ``remote_subpages`` adds coherence-forced transfers
    the cache model cannot see (data another processor wrote since the
    last phase — invalidated place-holders that must be re-fetched).
    """

    name: str
    n_active: int = 1
    flops: float = 0.0
    int_ops: float = 0.0
    stream: AccessStream | None = None
    #: Model the stream in its warm steady state (kernels iterate).
    warm: bool = True
    #: Extra remote subpage transfers forced by coherence.
    remote_subpages: float = 0.0
    #: Fraction of remote latency overlapped by prefetch (0..1).
    prefetch_overlap: float = 0.0
    #: Extra poststore instructions issued (each stalls the issuer
    #: briefly and adds a ring packet to the phase's traffic).
    poststores: float = 0.0
    #: Multiplier applied to all stream-derived costs: kernels with
    #: enormous gather traces (IS ranks 2^23 keys) pass a
    #: systematically subsampled stream and scale the results back up.
    stream_scale: float = 1.0
    #: Multiplier on sub-cache miss traffic, modelling pathological
    #: conflict behaviour the StatCache model cannot see (SP's
    #: unpadded layout thrashing the random-replacement sub-cache).
    subcache_conflict_factor: float = 1.0
    #: Flat additional cycles (lock pipelines, library overheads).
    extra_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.n_active < 1:
            raise ConfigError("a phase needs at least one active processor")
        if not 0.0 <= self.prefetch_overlap <= 1.0:
            raise ConfigError("prefetch_overlap must be in [0, 1]")
        if self.flops < 0 or self.int_ops < 0 or self.remote_subpages < 0:
            raise ConfigError("work quantities must be non-negative")
        if self.stream_scale <= 0 or self.subcache_conflict_factor < 1.0:
            raise ConfigError(
                "stream_scale must be positive and conflict factor >= 1"
            )


@dataclass(frozen=True)
class PhaseCost:
    """Priced phase (cycles, one processor)."""

    name: str
    compute_cycles: float
    subcache_cycles: float
    local_cache_cycles: float
    remote_cycles: float
    n_remote_transfers: float
    effective_remote_latency: float
    saturated: bool
    #: Fraction of ring slot capacity this phase consumes (including
    #: poststore broadcast packets).
    ring_utilization: float = 0.0

    @property
    def total_cycles(self) -> float:
        """All components."""
        return (
            self.compute_cycles
            + self.subcache_cycles
            + self.local_cache_cycles
            + self.remote_cycles
        )


class KernelCostModel:
    """Prices :class:`PhaseWork` against one machine configuration."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.subcache_model = AnalyticCache(config.subcache)
        self.local_model = AnalyticCache(config.local_cache)
        self.load_model = RingLoadModel(config.ring)

    def phase_cost(self, work: PhaseWork) -> PhaseCost:
        """Simulated cycles for one processor's share of the phase."""
        lat = self.config.latency
        compute = work.flops * CYCLES_PER_FLOP + work.int_ops * CYCLES_PER_INT_OP
        compute += work.poststores * lat.poststore_issue_cycles
        compute += work.extra_cycles
        subcache_cycles = 0.0
        local_cycles = 0.0
        remote_transfers = work.remote_subpages
        if work.stream is not None and work.stream.n_touches:
            iterations = 2 if work.warm else 1
            scale = work.stream_scale
            sc = self.subcache_model.simulate(work.stream, iterations=iterations)
            subcache_cycles += scale * sc.n_word_accesses * CYCLES_PER_WORD_ACCESS
            subcache_cycles += (
                scale
                * work.subcache_conflict_factor
                * sc.expected_line_misses
                * SUBBLOCK_FILLS_PER_SUBPAGE
                * lat.local_cache_hit_cycles
            )
            subcache_cycles += scale * sc.expected_frame_allocs * lat.block_alloc_cycles
            lc = self.local_model.simulate(work.stream, iterations=iterations)
            # Cold first touches create data locally (COMA first touch);
            # warm misses mean the data was displaced or is remote.
            cold = min(lc.cold_line_misses, lc.expected_line_misses)
            capacity_misses = scale * (lc.expected_line_misses - cold)
            local_cycles += scale * cold * lat.local_cache_hit_cycles
            local_cycles += scale * lc.expected_frame_allocs * lat.page_alloc_cycles
            remote_transfers += capacity_misses
            # Writes to shared data pay the exclusive-upgrade extra.
            local_cycles += (
                scale
                * work.stream.write_fraction
                * lc.expected_line_misses
                * lat.remote_write_extra_cycles
            )
        # Ring pricing: think time is everything that is not waiting on
        # the ring, spread across this phase's traffic.  Poststore
        # broadcast packets occupy slots exactly like demand transfers,
        # so they count toward the load even though the issuer does not
        # block on them.
        ring_packets = remote_transfers + work.poststores
        think = (
            (compute + subcache_cycles + local_cycles) / ring_packets
            if ring_packets > 0
            else 0.0
        )
        eff_latency = self.load_model.effective_latency(work.n_active, think)
        saturated = self.load_model.is_saturated(work.n_active, think)
        utilization = (
            self.load_model.utilization(work.n_active, think) if ring_packets > 0 else 0.0
        )
        remote_cycles = remote_transfers * eff_latency * (1.0 - work.prefetch_overlap)
        # Prefetching can hide latency only behind actual work.
        hidden = remote_transfers * eff_latency * work.prefetch_overlap
        exposed_shortfall = max(0.0, hidden - (compute + subcache_cycles))
        remote_cycles += exposed_shortfall
        return PhaseCost(
            name=work.name,
            compute_cycles=compute,
            subcache_cycles=subcache_cycles,
            local_cache_cycles=local_cycles,
            remote_cycles=remote_cycles,
            n_remote_transfers=remote_transfers,
            effective_remote_latency=eff_latency,
            saturated=saturated,
            ring_utilization=utilization,
        )

    def parallel_time(self, works: Sequence[PhaseWork]) -> PhaseCost:
        """Phase time = the slowest processor's cost (others wait at
        the phase-closing barrier).  Returns that processor's cost."""
        if not works:
            raise ConfigError("a phase needs at least one work descriptor")
        costs = [self.phase_cost(w) for w in works]
        return max(costs, key=lambda c: c.total_cycles)


@dataclass
class BarrierCostModel:
    """Cost of the system barrier closing each phase.

    The closed form ``(a + b * ceil(log2 P)) * remote_latency`` is
    calibrated against the event-level tree(M)/system barrier
    simulations (tests pin the agreement); the paper itself notes that
    for the kernels "the time for synchronization in this algorithm is
    negligible compared to the rest of the computation".
    """

    config: MachineConfig
    base_factor: float = 2.5
    per_round_factor: float = 3.3

    def barrier_cycles(self, n_procs: int) -> float:
        """Cycles for an n-way system barrier episode."""
        if n_procs < 1:
            raise ConfigError("barrier needs >= 1 processor")
        if n_procs == 1:
            return 0.0
        rounds = max(1, (n_procs - 1).bit_length())
        latency = self.config.remote_latency_cycles
        cost = (self.base_factor + self.per_round_factor * rounds) * latency
        if n_procs > self.config.cells_per_ring:
            # crossing the level-1 ring: the paper's "sudden jump"
            cost += self.config.ring.inter_ring_extra_cycles * 2
        return cost

    def barrier_seconds(self, n_procs: int) -> float:
        """Seconds for an n-way barrier episode."""
        return self.config.seconds(self.barrier_cycles(n_procs))
