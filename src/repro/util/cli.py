"""Shared plumbing for the package's command-line tools.

``ksr-experiments`` and ``ksr-analyze`` share their unix manners
(SIGPIPE behaviour), the ``--output`` report option, and the
select-by-id argument shape; this module holds that common surface.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

__all__ = [
    "install_sigpipe_handler",
    "build_parser",
    "format_cache_stats",
    "resolve_selection",
    "write_report",
]


def install_sigpipe_handler() -> None:
    """Behave like a well-mannered unix tool when piped into head(1)."""
    try:
        import signal

        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (ImportError, AttributeError, ValueError):  # pragma: no cover
        pass  # non-posix platform or non-main thread


def build_parser(
    prog: str,
    description: str,
    *,
    positional: str,
    positional_help: str,
) -> argparse.ArgumentParser:
    """An argument parser with the shared id-selection + output shape."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(positional, nargs="*", help=positional_help)
    parser.add_argument("--list", action="store_true", help=f"list {positional} ids")
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the rendered report to FILE (markdown-friendly)",
    )
    return parser


def resolve_selection(
    requested: list[str], known: Iterable[str]
) -> tuple[list[str], list[str]]:
    """Expand ``all`` and split a selection into (wanted, unknown) ids."""
    known = list(known)
    wanted = known if requested == ["all"] else requested
    unknown = [k for k in wanted if k not in known]
    return wanted, unknown


def format_cache_stats(stats: dict) -> str:
    """One-line human summary of a result cache's ``stats()`` dict.

    Shared by ``ksr-experiments --verbose`` and the ``ksr-serve``
    status surfaces, so both tools describe the cache identically —
    including the resolved absolute root, which is how a user discovers
    they have been warming a cache in the wrong directory.
    """
    lookups = stats["hits"] + stats["misses"]
    rate = stats["hits"] / lookups if lookups else 0.0
    parts = [
        f"cache at {stats['root']}:",
        f"{stats['hits']} hits / {stats['misses']} misses",
        f"({rate:.0%} hit rate)",
    ]
    if stats["corrupt"]:
        parts.append(f"[{stats['corrupt']} corrupt entries dropped]")
    parts += [f"{stats['evictions']} evicted", f"{stats['bytes']} bytes resident"]
    return " ".join(parts)


def write_report(path: str, title: str, sections: list[str]) -> None:
    """Write accumulated report sections as a small markdown file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {title}\n\n")
        fh.write("\n".join(sections))
    print(f"report written to {path}")


def print_unknown(unknown: list[str], what: str) -> int:
    """Complain about unknown ids; returns the exit status to use."""
    print(f"unknown {what}(s): {', '.join(unknown)}", file=sys.stderr)
    return 2
