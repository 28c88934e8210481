"""Command-line front end: ``ksr-trace``.

Re-runs the paper's machine-level experiments with the observability
pipeline attached and exports what the machine did: a Chrome-trace JSON
(load in ``about:tracing`` or https://ui.perfetto.dev), a CSV of the
bucketed machine-wide series, or a terminal summary.

Examples::

    ksr-trace --list
    ksr-trace fig3 --procs 16                        # terminal summary
    ksr-trace fig3 --procs 16 --format chrome --output fig3.trace.json
    ksr-trace fig4 fig5 --reps 4 --format csv
    ksr-trace fig3 --jobs 4 --no-cache               # byte-identical to serial

Traces do not perturb the simulation: probes are read-only, so a traced
point reports exactly the value an untraced run would.  Exports are
deterministic — same subjects, same options, same bytes, whatever
``--jobs`` says.
"""

from __future__ import annotations

import sys

from repro.experiments.base import CATALOG, run_plan
from repro.obs.export import export_chrome, export_csv
from repro.obs.probes import ObsCapture, ObsSpec
from repro.obs.summary import render_summary
from repro.util.cli import (
    build_parser,
    install_sigpipe_handler,
    positive_int,
    print_unknown,
    resolve_selection,
)

__all__ = ["main", "SUBJECTS"]

#: What can be traced: the per-point figures of the experiment catalog.
SUBJECTS = {key: e for key, e in CATALOG.items() if e.min_procs}


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``ksr-trace``."""
    install_sigpipe_handler()
    parser = build_parser(
        "ksr-trace",
        "Trace the simulated KSR machine while it reruns the paper's "
        "experiments; export Chrome traces, CSV series or a summary.",
        positional="subjects",
        positional_help="what to trace (see --list)",
    )
    parser.add_argument(
        "--procs", type=int, default=16, metavar="P",
        help="processor count for every traced point (default 16)",
    )
    parser.add_argument(
        "--format", choices=("summary", "chrome", "csv"), default="summary",
        help="export format (default: terminal summary)",
    )
    parser.add_argument(
        "--bucket", type=float, default=10_000.0, metavar="CYCLES",
        help="series bucket width in simulated cycles (default 10000)",
    )
    parser.add_argument(
        "--max-records", type=int, default=20_000, metavar="N",
        help="op-trace ring-buffer capacity; 0 = unbounded (default 20000; "
        "evictions are counted and reported, never silent)",
    )
    for name, what in (
        ("ops", "lock operations per processor"),
        ("samples", "timed accesses per processor"),
        ("reps", "barrier episodes per point"),
    ):
        quick = {k: e.params(quick=True)[name] for k, e in SUBJECTS.items() if name in e.default}
        sizes = ", ".join(f"{size} for {k}" for k, size in quick.items())
        parser.add_argument(
            f"--{name}", type=positive_int, default=None, metavar="N",
            help=f"{'/'.join(quick)}: {what} (default: each subject's quick size; {sizes})",
        )
    parser.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="fan points across N worker processes "
        "(output is byte-identical to the serial run)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point instead of reusing .ksr-cache/",
    )
    args = parser.parse_args(argv)
    if args.list or not args.subjects:
        for key, entry in SUBJECTS.items():
            print(f"{key:6s} {entry.title}")
        return 0
    wanted, unknown = resolve_selection(args.subjects, SUBJECTS)
    if unknown:
        return print_unknown(unknown, "subject")
    from repro.machine.config import MAX_CELLS
    from repro.experiments.sweep import ResultCache, SweepRunner

    for key in wanted:
        least = SUBJECTS[key].min_procs
        if args.procs < least:
            parser.error(f"{key} needs --procs of at least {least}, got {args.procs}")
    if args.procs > MAX_CELLS:
        parser.error(
            f"--procs must be at most {MAX_CELLS} (the largest KSR machine), got {args.procs}"
        )
    spec = ObsSpec(
        bucket_cycles=args.bucket,
        max_records=args.max_records if args.max_records > 0 else None,
    )
    captures: list[ObsCapture] = []
    cache = None if args.no_cache else ResultCache.default()
    with SweepRunner(jobs=args.jobs, cache=cache) as runner:
        for key in wanted:
            # the figure's plan at the one traced P, sized by the option
            # its parameters name; fig2's leaves out the allocation call-outs
            entry = SUBJECTS[key]
            params = entry.params(quick=True)
            params.update(
                (n, getattr(args, n))
                for n in ("samples", "ops", "reps")
                if n in params and getattr(args, n) is not None
            )
            params.update(proc_counts=[args.procs], obs=spec)
            if key == "fig2":
                params["callouts"] = False
            captures += [point.capture for point in run_plan(entry.plan_for(**params), runner)]
    if args.format == "chrome":
        text = export_chrome(captures)
    elif args.format == "csv":
        text = "\n".join(export_csv(c) for c in captures)
    else:
        text = render_summary(captures) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{args.format} export written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
