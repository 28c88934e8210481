"""Command-line front end: ``ksr-experiments``.

Runs any subset of the paper's experiments and prints their tables.

Examples::

    ksr-experiments --list
    ksr-experiments fig4 tab1
    ksr-experiments all --quick
    ksr-experiments all --quick --jobs 8   # fan sweep points across processes
    ksr-experiments tab1 tab2 --full       # paper-size problems
    ksr-experiments all --no-cache         # ignore .ksr-cache/ results

Parallel runs are deterministic: every sweep point re-derives its RNG
streams from its own arguments, so ``--jobs N`` output is byte-identical
to the serial run.  Results are memoised under ``.ksr-cache/`` (keyed by
code version + arguments), making re-runs of unchanged points instant.
"""

from __future__ import annotations

import sys
import time

from repro.experiments.base import CATALOG
from repro.util.cli import (
    build_parser,
    install_sigpipe_handler,
    positive_int,
    print_unknown,
    resolve_selection,
    write_report,
)

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``ksr-experiments``."""
    install_sigpipe_handler()
    parser = build_parser(
        "ksr-experiments",
        "Reproduce the tables and figures of 'Scalability "
        "Study of the KSR-1' on the simulated machine.",
        positional="experiments",
        positional_help="experiment ids (see --list), or 'all'",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps for a fast look"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-size problems (slower; affects "
        + "/".join(key for key, entry in CATALOG.items() if entry.full)
        + ")",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render each experiment's series as an ASCII figure too",
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        metavar="N",
        help="fan independent sweep points across N worker processes "
        "(output is byte-identical to the serial run)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point instead of reusing .ksr-cache/ "
        "(set KSR_CACHE_DIR to relocate the cache)",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="write one Chrome-trace JSON per sweep point into DIR "
        "(fig2/fig3/fig4/fig5; view with about:tracing or Perfetto)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="report the resolved cache location and hit/miss/corrupt "
        "counts after the run",
    )
    args = parser.parse_args(argv)
    if args.list or not args.experiments:
        for key, entry in CATALOG.items():
            print(f"{key:14s} {entry.title}")
        return 0
    wanted, unknown = resolve_selection(args.experiments, CATALOG)
    if unknown:
        return print_unknown(unknown, "experiment")
    from repro.experiments.sweep import ResultCache, SweepRunner

    cache = None if args.no_cache else ResultCache.default()
    sections: list[str] = []
    # One runner, so one worker pool, serves every selected experiment.
    with SweepRunner(jobs=args.jobs, cache=cache) as runner:
        for key in wanted:
            entry = CATALOG[key]
            params = entry.params(quick=args.quick, full=args.full)
            if entry.min_procs:  # a per-point figure writes traces
                params["trace_dir"] = args.trace_dir
            start = time.time()
            result = entry.run(runner, **params)
            elapsed = time.time() - start
            rendered = result.render()
            if args.chart and result.series:
                from repro.util.charts import ascii_chart

                rendered += "\n\n" + ascii_chart(
                    result.series,
                    title=f"{result.experiment_id} (series view)",
                    x_label="P",
                    y_label="value",
                )
            print(rendered)
            print(f"  [{key} completed in {elapsed:.1f}s]")
            print()
            sections.append(f"```\n{rendered}\n```\n_completed in {elapsed:.1f}s_\n")
    if args.verbose and cache is not None:
        from repro.util.cli import format_cache_stats

        print(format_cache_stats(cache.stats()))
    if args.output:
        write_report(args.output, "ksr-experiments report", sections)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
