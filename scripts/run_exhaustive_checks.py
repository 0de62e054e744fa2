#!/usr/bin/env python3
"""Run both invariance sweeps at full scale and print their summaries.

Each summary line ends with the sweep's elapsed time and its rate in
tuples per second (main2 counts skipped tuples, which it also decides).
Exit status is 0 when both sweeps pass, 1 when either finds a violation
and 2 for bad input (one ``error:`` line on stderr), so this doubles as a
regression gate:

    python scripts/run_exhaustive_checks.py --bases 2..16 --workers 4
"""

import argparse
import sys
import time

from radixroot import DomainError, ParseError, PreconditionError, fuzz_main1, fuzz_main2
from radixroot.cli import EXIT_USAGE, _integer, parse_base_range


def _timing(tuples: int, elapsed: float) -> str:
    """Elapsed time and tuples decided per second, e.g. ``(0.15s, 104000/s)``."""
    return f"({elapsed:.2f}s, {tuples / elapsed:.0f}/s)"


def run(bases: range, bound: int, terms: int, n_bound: int, s_bound: int, workers: int) -> int:
    failed = 0
    started = time.perf_counter()
    summary = fuzz_main1(bases, bound, terms, workers=workers)
    elapsed = time.perf_counter() - started
    print(
        f"main1  tested={summary.tested} failed={summary.failed}"
        f" degenerate={summary.degenerate} {_timing(summary.tested, elapsed)}"
    )
    for failure in summary.failures:
        print(f"  FAIL {failure}")
    failed += summary.failed

    started = time.perf_counter()
    summary = fuzz_main2(bases, n_bound, s_bound, workers=workers)
    elapsed = time.perf_counter() - started
    print(
        f"main2  tested={summary.tested} skipped={summary.skipped}"
        f" failed={summary.failed} degenerate={summary.degenerate}"
        f" {_timing(summary.tested + summary.skipped, elapsed)}"
    )
    for failure in summary.failures:
        print(f"  FAIL {failure}")
    failed += summary.failed
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bases", default="2..16")
    ap.add_argument("--bound", type=_integer, default=120)
    ap.add_argument("--terms", type=_integer, default=5)
    ap.add_argument("--n-bound", type=_integer, default=100)
    ap.add_argument("--s-bound", type=_integer, default=100)
    ap.add_argument("--workers", type=_integer, default=1)
    args = ap.parse_args()
    try:
        return run(parse_base_range(args.bases), args.bound, args.terms, args.n_bound,
                   args.s_bound, args.workers)
    except (ParseError, DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
