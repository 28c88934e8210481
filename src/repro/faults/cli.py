"""``ksr-faults``: run resilience campaigns from the command line.

Commands
--------
``campaign``
    Sweep the figure-3 lock workload over ``--processors`` x
    ``--fault-rates``, print the summary table, optionally write the
    deterministic JSON summary (``--format json`` / ``--output``) and
    per-point Chrome traces (``--trace-dir``).
``smoke``
    A 30-second sanity campaign: one processor count, the clean
    baseline plus one fault rate, small operation count.  CI runs this
    and archives the JSON artifact.

Examples
--------
::

    ksr-faults campaign --processors 8,16,32 --jobs 4
    ksr-faults campaign --fault-rates 0,1e-4 --format json --output out.json
    ksr-faults smoke --processors 8 --fault-rate 1e-4 --output smoke.json
"""

from __future__ import annotations

import sys
from typing import Any, Callable

from repro.experiments.sweep import ResultCache, SweepRunner
from repro.faults.campaign import CAMPAIGN_DEFAULT, DEFAULT_RATES, run_campaign
from repro.machine.config import MAX_CELLS
from repro.obs import ObsSpec
from repro.util.cli import build_parser, install_sigpipe_handler, positive_int, print_unknown

__all__ = ["main"]

_COMMANDS = ("campaign", "smoke")


def _parse_list(text: str, what: str, kind: Callable[[str], Any]) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"invalid {what} list: {text!r}")


def build_faults_parser():
    """The ``ksr-faults`` argument parser (module-level for tests)."""
    parser = build_parser(
        "ksr-faults",
        "Resilience campaigns for the simulated KSR-1: sweep fault rates "
        "against the paper's lock workload and report the degradation.",
        positional="command",
        positional_help=f"one of: {', '.join(_COMMANDS)}",
    )
    parser.add_argument(
        "--processors", default=",".join(map(str, CAMPAIGN_DEFAULT["proc_counts"])),
        metavar="P1,P2,...",
        help="processor counts to sweep (default: %(default)s)",
    )
    parser.add_argument(
        "--fault-rates", default=",".join(str(r) for r in DEFAULT_RATES),
        metavar="R1,R2,...",
        help="per-packet corruption rates (default: %(default)s)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=1e-4, metavar="R",
        help="single fault rate for `smoke` (default: %(default)s)",
    )
    parser.add_argument(
        "--ops", type=positive_int, default=CAMPAIGN_DEFAULT["ops"],
        help="lock operations per processor (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=CAMPAIGN_DEFAULT["seed"],
        help="master seed for every point (default: %(default)s)",
    )
    parser.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="worker processes for the sweep (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point, ignoring the result cache",
    )
    parser.add_argument(
        "--format", choices=("summary", "json"), default="summary",
        help="stdout format (default: %(default)s)",
    )
    parser.add_argument(
        "--trace-dir", metavar="DIR",
        help="write one Chrome trace per point into DIR",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``ksr-faults`` console script."""
    install_sigpipe_handler()
    parser = build_faults_parser()
    args = parser.parse_args(argv)
    if args.list:
        for command in _COMMANDS:
            print(command)
        return 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    command = args.command[0]
    if command not in _COMMANDS:
        return print_unknown([command], "command")
    proc_counts = _parse_list(args.processors, "processor", int)
    if command == "smoke":
        proc_counts, fault_rates = proc_counts[:1], [0.0, args.fault_rate]
    else:
        fault_rates = _parse_list(args.fault_rates, "fault rate", float)
    # the service's rules; a campaign measures lock contention, so P >= 2
    if not proc_counts or not fault_rates:
        parser.error("--processors and --fault-rates each need at least one value")
    bad_p = [p for p in proc_counts if not 2 <= p <= MAX_CELLS]
    if bad_p:
        parser.error(f"processor counts must be in [2, {MAX_CELLS}], got {bad_p[0]}")
    bad_r = [r for r in fault_rates if not 0 <= r < 1]
    if bad_r:
        parser.error(f"fault rates must be in [0, 1), got {bad_r[0]:g}")
    if args.seed < 0:
        parser.error(f"--seed must be at least 0, got {args.seed}")
    ops = min(args.ops, 10) if command == "smoke" else args.ops
    cache = None if args.no_cache else ResultCache.default()
    with SweepRunner(jobs=args.jobs, cache=cache) as runner:
        campaign = run_campaign(
            proc_counts, fault_rates, ops=ops, seed=args.seed, runner=runner, obs=ObsSpec(),
            trace_dir=args.trace_dir,
        )
    if args.format == "json":
        sys.stdout.write(campaign.to_json())
    else:
        print(campaign.render())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(campaign.to_json())
        print(f"summary written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - console entry
    raise SystemExit(main())
