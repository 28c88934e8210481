"""Experiment runners: one per table/figure of the paper.

==============  ============================================
Module          Paper artifact
==============  ============================================
``latency``     Figure 2 + the block/page allocation overhead
                measurements of section 3.1
``locks``       Figure 3 (exclusive vs read-write locks)
``barriers``    Figure 4 (32-node KSR-1) and Figure 5
                (64-node KSR-2)
``other_archs`` Section 3.2.3 (Sequent Symmetry / BBN
                Butterfly comparison)
``ep_scaling``  EP results of section 3.3 (linear speedup,
                ~11 MFLOPS per cell)
``cg_scaling``  Table 1 + the CG curve of Figure 8
``is_scaling``  Table 2 + the IS curve of Figure 8
``sp_scaling``  Tables 3 and 4
==============  ============================================

Every runner returns an :class:`~repro.experiments.base.ExperimentResult`
whose rows mirror the paper's layout.  :data:`~repro.experiments.base.CATALOG`
declares each one once, for ``ksr-experiments``, ``ksr-trace`` and ``ksr-serve``.
"""

from repro.experiments.base import ExperimentResult, PAPER_ANCHORS

__all__ = ["ExperimentResult", "PAPER_ANCHORS"]
