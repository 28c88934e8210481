"""Machine configurations for the KSR-1 and KSR-2.

All architectural parameters used anywhere in the simulator are defined
here, with the values published in the paper and the KSR-1 Principles
of Operations:

===========================  ======================================
Parameter                    Published value
===========================  ======================================
CPU clock                    20 MHz (KSR-1), 40 MHz (KSR-2)
Instruction issue            2 per cycle (CEU/XIU + FPU/IPU)
Peak floating point          40 MFLOPS per cell (KSR-1)
Sub-cache (first level)      256 KB data + 256 KB instruction,
                             2-way set associative, random
                             replacement, 64 B sub-blocks,
                             2 KB block allocation
Local cache (second level)   32 MB, 16-way set associative, random
                             replacement, 128 B sub-pages,
                             16 KB page allocation
Ring (one level)             unidirectional, slotted, pipelined;
                             24 slots as 2 address-interleaved
                             sub-rings of 12 slots; up to 32 cells;
                             1 GB/s
Ring hierarchy               up to 34 leaf rings under one level-1
                             ring (1088 cells)
Latency: sub-cache hit       2 cycles
Latency: local-cache hit     18 cycles
Latency: remote (same ring)  ~175 cycles
===========================  ======================================

The KSR-2 differs *only* in CPU clock speed (the paper, section 2 and
3.2.4).  Because the memory system and ring are physically unchanged,
their latencies are constant in *seconds* and therefore double when
expressed in the KSR-2's CPU cycles; the sub-cache is part of the CPU
pipeline and stays at 2 cycles.

Only the modelled machine is configured here.  The simulator's
byte-identical speed-ups — closed-form batching of hardware retries
(:mod:`repro.ring.batch`) and memoized kernel pricing
(:class:`repro.memory.analytic_cache.AnalyticCache`) — are not options:
every machine runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.errors import ConfigError
from repro.util.units import KIB, MIB

__all__ = [
    "CacheConfig",
    "RingConfig",
    "LatencyConfig",
    "TimerConfig",
    "MachineConfig",
    "SUBPAGE_BYTES",
    "SUBBLOCK_BYTES",
    "PAGE_BYTES",
    "BLOCK_BYTES",
    "WORD_BYTES",
    "MAX_LEAF_RINGS",
    "MAX_CELLS",
]

#: Unit of coherence and ring transfer (the local-cache line).
SUBPAGE_BYTES = 128
#: Unit of transfer between local cache and sub-cache.
SUBBLOCK_BYTES = 64
#: Unit of allocation in the local cache.
PAGE_BYTES = 16 * KIB
#: Unit of allocation in the sub-cache.
BLOCK_BYTES = 2 * KIB
#: The KSR-1 is a 64-bit machine.
WORD_BYTES = 8
#: Leaf rings one level-1 ring connects.
MAX_LEAF_RINGS = 34
#: Cells of the largest KSR machine: 34 full leaf rings of 32 cells.
MAX_CELLS = MAX_LEAF_RINGS * 32


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache level.

    ``line_bytes`` is the transfer granularity into this level and
    ``alloc_bytes`` the allocation granularity (a KSR oddity: space is
    reserved per 2 KB block / 16 KB page while data moves per 64 B
    sub-block / 128 B sub-page).
    """

    total_bytes: int
    ways: int
    line_bytes: int
    alloc_bytes: int

    def __post_init__(self) -> None:
        for name in ("total_bytes", "ways", "line_bytes", "alloc_bytes"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"CacheConfig.{name} must be positive")
        if self.alloc_bytes % self.line_bytes != 0:
            raise ConfigError(
                f"alloc_bytes ({self.alloc_bytes}) must be a multiple of "
                f"line_bytes ({self.line_bytes})"
            )
        if self.total_bytes % (self.alloc_bytes * self.ways) != 0:
            raise ConfigError(
                f"total_bytes ({self.total_bytes}) must divide into "
                f"{self.ways} ways of {self.alloc_bytes}-byte frames"
            )

    @property
    def n_lines(self) -> int:
        """Number of line-sized frames in the cache."""
        return self.total_bytes // self.line_bytes

    @property
    def n_frames(self) -> int:
        """Number of allocation-unit frames in the cache."""
        return self.total_bytes // self.alloc_bytes

    @property
    def n_sets(self) -> int:
        """Number of sets (indexed by allocation unit)."""
        return self.n_frames // self.ways

    @property
    def lines_per_alloc(self) -> int:
        """How many transfer lines fit in one allocation unit."""
        return self.alloc_bytes // self.line_bytes


@dataclass(frozen=True)
class RingConfig:
    """Geometry and timing of one ring level.

    A transaction (request out + response back) travels exactly one
    full circuit regardless of where the responder sits, because the
    ring is unidirectional — the paper exploits this to argue that the
    neighbour is as far away as the farthest cell.
    """

    #: Stations on the ring (cell slots plus the ARD port).
    n_stations: int
    #: Independent slotted sub-rings, address-interleaved by subpage.
    n_subrings: int
    #: Slots circulating per sub-ring.
    slots_per_subring: int
    #: CPU cycles for a slot to advance one station.
    hop_cycles: float
    #: Fixed protocol cycles per remote transaction (lookup, packet
    #: assembly, cache fill) on top of the circuit time.
    protocol_overhead_cycles: float
    #: Extra CPU cycles when a transaction must cross the ARD into the
    #: level-1 ring and back down into another leaf ring.
    inter_ring_extra_cycles: float

    def __post_init__(self) -> None:
        if self.n_stations < 2:
            raise ConfigError("a ring needs at least 2 stations")
        if self.n_subrings < 1 or self.slots_per_subring < 1:
            raise ConfigError("ring must have at least one sub-ring and one slot")
        if self.hop_cycles <= 0 or self.protocol_overhead_cycles < 0:
            raise ConfigError("ring timing parameters must be positive")

    # Derived values are cached: RingConfig is frozen, and these sit on
    # the per-transaction hot path of the slotted-ring model.

    @cached_property
    def circuit_cycles(self) -> float:
        """CPU cycles for one full circuit of the ring."""
        return self.n_stations * self.hop_cycles

    @cached_property
    def total_slots(self) -> int:
        """Concurrent transactions the ring level can carry."""
        return self.n_subrings * self.slots_per_subring

    @cached_property
    def slot_spacing_cycles(self) -> float:
        """Cycles between consecutive slots passing a station."""
        return self.circuit_cycles / self.slots_per_subring

    @cached_property
    def slot_hold_cycles(self) -> float:
        """How long one transaction keeps its slot busy: the full
        circuit plus half a slot spacing of removal/turnaround before
        the emptied slot is usable by the next station."""
        return self.circuit_cycles + 0.5 * self.slot_spacing_cycles

    @cached_property
    def remote_latency_cycles(self) -> float:
        """Uncontended remote access latency within this ring."""
        return self.circuit_cycles + self.protocol_overhead_cycles


@dataclass(frozen=True)
class LatencyConfig:
    """Latencies of the memory hierarchy, in CPU cycles.

    ``*_write_extra`` model the paper's observation (Figure 2) that
    writes are slightly more expensive than reads because they incur
    replacement cost in the sub-cache.  The allocation penalties model
    the measured +50 % local-cache access time when every access
    allocates a fresh 2 KB sub-cache block, and +60 % remote time when
    every access allocates a fresh 16 KB local-cache page.
    """

    subcache_hit_cycles: float = 2.0
    local_cache_hit_cycles: float = 18.0
    local_write_extra_cycles: float = 2.0
    remote_write_extra_cycles: float = 14.0
    #: Cycles to allocate a 2 KB block frame in the sub-cache
    #: (calibrated: +50 % on an 18-cycle local-cache access).
    block_alloc_cycles: float = 9.0
    #: Cycles to allocate a 16 KB page frame in the local cache
    #: (calibrated: +60 % on a remote access).
    page_alloc_cycles: float = 105.0
    #: Poststore stalls the issuer only until the line is written to
    #: the local cache; the ring transfer proceeds asynchronously.
    poststore_issue_cycles: float = 25.0
    #: Software overhead charged for a loop iteration of spinning
    #: (test + branch) when a spin re-checks a locally valid flag.
    spin_iteration_cycles: float = 6.0
    #: Cycles per "local operation" — the unit the paper's synthetic
    #: lock workloads are expressed in (a cached memory access plus a
    #: little loop overhead).
    local_op_cycles: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "subcache_hit_cycles",
            "local_cache_hit_cycles",
            "poststore_issue_cycles",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"LatencyConfig.{name} must be positive")


@dataclass(frozen=True)
class TimerConfig:
    """OS timer-interrupt model (used by the lock experiments).

    The paper attributes the surprising defeat of the hardware lock by
    the software queue lock partly to unsynchronized per-processor
    timer interrupts [Frank, personal communication].  Each cell takes
    an interrupt every ``period_s`` seconds at a random phase, stalling
    whatever thread is running for ``cost_s`` seconds.
    """

    enabled: bool = True
    period_s: float = 10e-3
    cost_s: float = 150e-6

    def __post_init__(self) -> None:
        if self.enabled and (self.period_s <= 0 or self.cost_s < 0):
            raise ConfigError("timer period must be positive and cost non-negative")
        if self.enabled and self.cost_s >= self.period_s:
            raise ConfigError("timer cost must be smaller than its period")


@dataclass(frozen=True)
class MachineConfig:
    """Complete description of a simulated KSR machine.

    Use the :meth:`ksr1` and :meth:`ksr2` factories for the published
    configurations; ``dataclasses.replace`` (or :meth:`with_cells`)
    derives variants.
    """

    name: str
    clock_hz: float
    n_cells: int
    cells_per_ring: int
    issue_width: int
    peak_mflops_per_cell: float
    subcache: CacheConfig
    local_cache: CacheConfig
    ring: RingConfig
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    timer: TimerConfig = field(default_factory=TimerConfig)
    seed: int = 20130101
    #: Read-snarfing (concurrent read-miss combining + free place-holder
    #: revalidation) is a headline KSR feature; disable for ablation
    #: studies of what the global-wakeup barriers owe to it.
    enable_snarfing: bool = True

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ConfigError("machine needs at least one cell")
        if self.cells_per_ring < 1 or self.cells_per_ring > 32:
            raise ConfigError("a KSR leaf ring holds between 1 and 32 cells")
        if self.n_cells > MAX_LEAF_RINGS * self.cells_per_ring:
            raise ConfigError(
                f"{self.n_cells} cells exceeds the {MAX_LEAF_RINGS}-leaf-ring "
                f"maximum ({MAX_LEAF_RINGS * self.cells_per_ring})"
            )
        if self.clock_hz <= 0:
            raise ConfigError("clock must be positive")
        if self.issue_width < 1:
            raise ConfigError("issue width must be at least 1")

    # ------------------------------------------------------------------
    # Derived topology
    # ------------------------------------------------------------------

    @property
    def n_rings(self) -> int:
        """Number of leaf rings needed for ``n_cells``."""
        return -(-self.n_cells // self.cells_per_ring)

    @property
    def cycle_s(self) -> float:
        """Duration of one CPU cycle in seconds."""
        return 1.0 / self.clock_hz

    def ring_of(self, cell_id: int) -> int:
        """Leaf ring index hosting ``cell_id``."""
        self._check_cell(cell_id)
        return cell_id // self.cells_per_ring

    def same_ring(self, a: int, b: int) -> bool:
        """Whether two cells share a leaf ring (no ARD crossing)."""
        return self.ring_of(a) == self.ring_of(b)

    def _check_cell(self, cell_id: int) -> None:
        if not 0 <= cell_id < self.n_cells:
            raise ConfigError(f"cell id {cell_id} out of range [0, {self.n_cells})")

    # ------------------------------------------------------------------
    # Derived latencies
    # ------------------------------------------------------------------

    @property
    def remote_latency_cycles(self) -> float:
        """Uncontended same-ring remote access latency (CPU cycles)."""
        return self.ring.remote_latency_cycles

    def remote_latency_between(self, a: int, b: int) -> float:
        """Uncontended remote latency between two specific cells."""
        base = self.ring.remote_latency_cycles
        if self.same_ring(a, b):
            return base
        return base + self.ring.inter_ring_extra_cycles

    def seconds(self, cycles: float) -> float:
        """Convert CPU cycles to seconds on this machine."""
        return cycles / self.clock_hz

    def cycles(self, seconds: float) -> float:
        """Convert seconds to CPU cycles on this machine."""
        return seconds * self.clock_hz

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    @staticmethod
    def ksr1(
        n_cells: int = 32,
        *,
        seed: int = 20130101,
        timer: TimerConfig | None = None,
    ) -> "MachineConfig":
        """The published 20 MHz KSR-1 (default: the paper's 32-cell ring).

        The ring hop time is chosen so the uncontended remote latency
        matches the published ~175 cycles for a fully populated leaf
        ring: 34 stations x 4 cycles/hop + 39 cycles protocol overhead.
        """
        ring = RingConfig(
            n_stations=34,
            n_subrings=2,
            slots_per_subring=12,
            hop_cycles=4.0,
            protocol_overhead_cycles=39.0,
            inter_ring_extra_cycles=260.0,
        )
        return MachineConfig(
            name="KSR-1",
            clock_hz=20e6,
            n_cells=n_cells,
            cells_per_ring=32,
            issue_width=2,
            peak_mflops_per_cell=40.0,
            subcache=CacheConfig(
                total_bytes=256 * KIB,
                ways=2,
                line_bytes=SUBBLOCK_BYTES,
                alloc_bytes=BLOCK_BYTES,
            ),
            local_cache=CacheConfig(
                total_bytes=32 * MIB,
                ways=16,
                line_bytes=SUBPAGE_BYTES,
                alloc_bytes=PAGE_BYTES,
            ),
            ring=ring,
            latency=LatencyConfig(),
            timer=timer if timer is not None else TimerConfig(),
            seed=seed,
        )

    @staticmethod
    def ksr2(
        n_cells: int = 64,
        *,
        seed: int = 20130101,
        timer: TimerConfig | None = None,
    ) -> "MachineConfig":
        """The 40 MHz KSR-2 (default: the paper's two-ring 64-cell box).

        Identical memory system and ring; only the CPU clock doubles.
        Latencies fixed in *seconds* (local cache, ring) therefore
        double when expressed in CPU cycles, while the pipeline-coupled
        sub-cache stays at 2 cycles.
        """
        base = MachineConfig.ksr1(n_cells=32, seed=seed, timer=timer)
        ring = replace(
            base.ring,
            hop_cycles=base.ring.hop_cycles * 2,
            protocol_overhead_cycles=base.ring.protocol_overhead_cycles * 2,
            inter_ring_extra_cycles=base.ring.inter_ring_extra_cycles * 2,
        )
        latency = replace(
            base.latency,
            local_cache_hit_cycles=base.latency.local_cache_hit_cycles * 2,
            local_write_extra_cycles=base.latency.local_write_extra_cycles * 2,
            remote_write_extra_cycles=base.latency.remote_write_extra_cycles * 2,
            block_alloc_cycles=base.latency.block_alloc_cycles * 2,
            page_alloc_cycles=base.latency.page_alloc_cycles * 2,
            poststore_issue_cycles=base.latency.poststore_issue_cycles * 2,
            # software spin loop runs on the CPU: unchanged in cycles
            spin_iteration_cycles=base.latency.spin_iteration_cycles,
        )
        return replace(
            base,
            name="KSR-2",
            clock_hz=40e6,
            n_cells=n_cells,
            ring=ring,
            latency=latency,
        )

    def with_cells(self, n_cells: int) -> "MachineConfig":
        """This configuration resized to ``n_cells`` processors."""
        return replace(self, n_cells=n_cells)
