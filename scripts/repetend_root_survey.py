#!/usr/bin/env python3
"""Survey repetends across a row of denominators in one base.

For each repeating n/den the repetend digit sum lands on a multiple of
base-1 whenever the denominator's base-coprime part also avoids the
factors of base-1, which this table makes easy to eyeball:

    python scripts/repetend_root_survey.py --base 10 --num 9 --max-den 40
"""

import argparse
import math
import sys

from radixroot import (DomainError, ParseError, PreconditionError, Rational, classify,
                       digital_root, format_repr, to_repeating)
from radixroot.cli import EXIT_USAGE, _integer


def survey(k: int, num: int, max_den: int) -> None:
    print(f"base {k}: repetend digit sums and roots for {num}/den")
    for den in range(2, max_den + 1):
        if math.gcd(num, den) != 1:
            continue
        q = Rational(num, den)
        if classify(q, k).is_terminating:
            continue
        r = to_repeating(q, k)
        digits = sum(r.repetend)
        root = digital_root(digits, k).root
        marker = "*" if digits % (k - 1) == 0 else " "
        print(
            f"  den={den:<4} T={r.period:<4} sum={digits:<5} root={root} {marker} "
            f"{format_repr(r)}"
        )
    print("rows marked * have repetend digit sum divisible by base-1")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", type=_integer, default=10)
    ap.add_argument("--num", type=_integer, default=9)
    ap.add_argument("--max-den", type=_integer, default=40)
    args = ap.parse_args()
    try:
        survey(args.base, args.num, args.max_den)
    except (ParseError, DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
