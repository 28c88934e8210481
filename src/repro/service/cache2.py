"""The service's name for the one result cache.

The sharded, size-capped, pinnable cache the daemon and the fleet use
is :class:`repro.experiments.sweep.ResultCache`, the same class every
CLI uses.  This module only re-exports it under its old name, which
``benchmarks/e2e`` still imports.
"""

from repro.experiments.sweep import CACHE_FORMAT_VERSION, ResultCache

__all__ = ["ShardedResultCache", "CACHE_FORMAT_VERSION"]

ShardedResultCache = ResultCache
