"""Command-line interface.

Each ``cmd_*`` parses its arguments, calls the library and returns
``(inputs, result, text, passed)``, with ``passed`` None for commands that
check nothing.  ``main`` alone turns that into output and an exit code:
the text, or with ``--json`` the document {"command", "inputs", "result",
"pass"}, where "pass" is present only when ``passed`` is not None.

Exit codes: 0 = success / check verified, 1 = check violation found,
2 = usage, parse, or precondition error, 141 (128 + SIGPIPE) = the reader
closed stdout before all output was written.  ``--json`` switches every
subcommand to a single JSON document on stdout; diagnostics go to stderr.
Rationals are serialized as {"num": "...", "den": "..."} strings, digit
lists as arrays of integers, and every other integer (a base, n, a root)
as a JSON number, printed in full however long.  Python's ``json`` reads a
number past 4,300 digits only with ``parse_int=str`` or with the
int-string limit lifted (``sys.set_int_max_str_digits(0)``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import digroot, modring, radix, theorems
from .arith import Rational
from .errors import DomainError, ParseError, PreconditionError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


def parse_value_literal(text: str) -> Rational:
    """Accept 'a/b', a plain nonnegative integer, or a bracket literal
    like '[2A7E]_16'."""
    text = text.strip()
    if text.startswith("["):
        return radix.value_of(radix.parse(text))
    if "/" in text:
        num_text, _, den_text = text.partition("/")
        num, den = radix._decimal(num_text), radix._decimal(den_text)
        if num is None or den is None:
            raise ParseError(f"invalid rational literal {radix._echo(text)}", 0)
        if den == 0:
            raise ParseError(f"zero denominator in {radix._echo(text)}", len(num_text) + 1)
        return Rational(num, den)
    num = radix._decimal(text)
    if num is None:
        raise ParseError(f"invalid number literal {radix._echo(text)}", 0)
    return Rational(num)


def parse_base_range(text: str) -> range:
    """'2..16' -> range(2, 17); a single number selects just that base."""
    lo, sep, hi = text.partition("..")
    low = radix._decimal(lo)
    high = radix._decimal(hi) if sep else low
    if low is None or high is None:
        raise ParseError(f"invalid base range {radix._echo(text)}", 0)
    if high < low:
        raise PreconditionError(f"inverted base range {radix._echo(text)}")
    if low < 2:
        raise PreconditionError(f"bases must be >= 2, got {low}")
    return range(low, high + 1)


def _integer(text: str) -> int:
    """An ASCII decimal numeral with an optional leading '-': the argparse
    type of every integer flag, and how RADIXROOT_WORKERS is read.  Sign
    checks are left to the library, which names the bound it needs."""
    value = radix._decimal(text.removeprefix("-"))
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return -value if text.startswith("-") else value


def _resolve_workers(flag_value: int | None) -> int:
    if flag_value is None:
        env = os.environ.get("RADIXROOT_WORKERS")
        if not env:
            return 1
        try:
            flag_value = _integer(env)
        except argparse.ArgumentTypeError:
            raise PreconditionError(f"RADIXROOT_WORKERS must be an integer, got {env!r}") from None
    return flag_value


def _rational_json(q: Rational) -> dict:
    return {"num": str(q.num), "den": str(q.den)}


def _field_dict(report, *skip: str) -> dict:
    """A result dataclass's fields in declaration order, the JSON key order.
    Shallow, unlike ``dataclasses.asdict``: json writes tuples as arrays,
    and a deep copy of a long repetend costs more than computing it."""
    return {f.name: getattr(report, f.name) for f in fields(report) if f.name not in skip}


def cmd_classify(args):
    q = parse_value_literal(args.value)
    c = radix.classify(q, args.base)
    inputs = {"value": _rational_json(q), "base": args.base}
    result = {"kind": c.kind.value, "rho0": c.rho0, "period": c.period}
    return inputs, result, f"{c.kind.value} rho0={c.rho0} period={c.period}", None


def cmd_repr(args):
    """``repr --base`` and ``convert --to``: one value in one base."""
    key = "base" if args.command == "repr" else "to"
    base = getattr(args, key)
    q = parse_value_literal(args.value)
    r = radix._encode(q, base, args.infinite)
    text = radix.format_repr(r)
    inputs = {"value": _rational_json(q), key: base, "infinite": args.infinite}
    result = {"text": text, **_field_dict(r)}
    return inputs, result, text, None


def cmd_digroot(args):
    q = parse_value_literal(args.value)
    res = digroot.tf_digital_root(q, args.base)
    inputs = {"value": _rational_json(q), "base": args.base}
    trajectory = ", ".join(str(t) for t in res.trajectory)
    text = f"root={res.root} persistence={res.persistence} trajectory=[{trajectory}]"
    return inputs, _field_dict(res), text, None


def cmd_orbits(args):
    part = modring.orbit_partition(args.modulus)
    classes = sorted(part.classes.items())
    lines = []
    for d, members in classes:
        inner = ", ".join(str(m) for m in members)
        lines.append(f"Γ_{d}^{part.modulus} = {{{inner}}}")
    result = {
        "modulus": part.modulus,
        "classes": {str(d): list(m) for d, m in classes},
    }
    return {"modulus": args.modulus}, result, "\n".join(lines), None


def cmd_main1(args):
    q = parse_value_literal(args.q)
    rep = theorems.verify_main1(q, args.r, args.base, args.terms)
    lines = [
        f"main1: {'PASS' if rep.passed else 'FAIL'}",
        f"  base={rep.base} q={rep.q} r={rep.r} orbit_delta={rep.orbit_delta}"
        f" congruence_ok={rep.congruence_ok}",
    ]
    lines += [
        f"  j={t.j} value={t.value} root={t.root} orbit={t.orbit_label}"
        for t in rep.terms
    ]
    if rep.witness is not None:
        lines.append(f"  witness: j={rep.witness}")
    inputs = {"check": "main1", "q": _rational_json(q), "r": args.r,
              "base": args.base, "terms": args.terms}
    result = {
        "base": rep.base,
        "q": _rational_json(rep.q),
        "r": rep.r,
        "terms": [
            {"j": t.j, "value": _rational_json(t.value), "root": t.root, "orbit": t.orbit_label}
            for t in rep.terms
        ],
        "orbit_delta": rep.orbit_delta,
        "congruence_ok": rep.congruence_ok,
        "witness": rep.witness,
    }
    return inputs, result, "\n".join(lines), rep.passed


def cmd_main2(args):
    rep = theorems.verify_main2(args.n, args.s, args.base)
    lines = [
        f"main2: {'PASS' if rep.passed else 'FAIL'}",
        f"  base={rep.base} n={rep.n} s={rep.s}"
        f" smooth_part={rep.smooth_part} p_part={rep.p_part}",
    ]
    if rep.preconditions_ok:
        lines.append(
            f"  repetend={radix._join_digits(rep.repetend, rep.base)}"
            f" root={rep.repetend_root}"
            f" t''_divisible={rep.t_doubleprime_divisible}"
        )
    else:
        lines.append(f"  reason: {rep.reason}")
    inputs = {"check": "main2", "n": args.n, "s": args.s, "base": args.base}
    return inputs, _field_dict(rep, "passed"), "\n".join(lines), rep.passed


def cmd_cor1(args):
    q = parse_value_literal(args.q)
    holds = theorems.verify_cor1(q, args.r, args.base)
    inputs = {"check": "cor1", "q": _rational_json(q), "r": args.r, "base": args.base}
    return inputs, {"holds": holds}, f"cor1: {'PASS' if holds else 'FAIL'}", holds


def cmd_lemma31(args):
    q = parse_value_literal(args.q)
    holds = theorems.verify_lemma_dr(q, args.base)
    inputs = {"check": "lemma31", "q": _rational_json(q), "base": args.base}
    return inputs, {"holds": holds}, f"lemma31: {'PASS' if holds else 'FAIL'}", holds


def cmd_fuzz(args):
    bases = parse_base_range(args.bases)
    workers = _resolve_workers(args.workers)
    if args.check == "main1":
        summary = theorems.fuzz_main1(bases, args.bound, args.terms, workers=workers)
        inputs = {"check": "main1", "bases": args.bases, "bound": args.bound,
                  "terms": args.terms, "workers": workers}
    else:
        summary = theorems.fuzz_main2(bases, args.n_bound, args.s_bound, workers=workers)
        inputs = {"check": "main2", "bases": args.bases, "n_bound": args.n_bound,
                  "s_bound": args.s_bound, "workers": workers}
    lines = [
        f"tested={summary.tested} skipped={summary.skipped}"
        f" degenerate={summary.degenerate} failed={summary.failed}"
    ]
    lines += [f"  FAIL {failure}" for failure in summary.failures]
    return inputs, _field_dict(summary), "\n".join(lines), summary.failed == 0


def cmd_magic(args):
    res = theorems.solve_missing_digit(args.pattern, args.base)
    rendered = [radix._join_digits([d], args.base) for d in res.candidates]
    text = f"ambiguous: {rendered[0]} or {rendered[1]}" if res.ambiguous else rendered[0]
    inputs = {"pattern": args.pattern, "base": args.base}
    result = {"digits": list(res.candidates), "ambiguous": res.ambiguous}
    return inputs, result, text, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radixroot",
        description="Exact base-k representations, digital roots, orbit structure, "
                    "and exhaustive invariance checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit a JSON document")

    p = sub.add_parser("classify", help="terminating/repeating classification of a value")
    p.add_argument("value")
    p.add_argument("--base", type=_integer, required=True)
    add_json(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("repr", help="canonical digit representation of a value")
    p.add_argument("value")
    p.add_argument("--base", type=_integer, required=True)
    p.add_argument("--infinite", action="store_true",
                   help="force the repeating form with a trailing repetend")
    add_json(p)
    p.set_defaults(func=cmd_repr)

    p = sub.add_parser("convert", help="re-encode a value in another base")
    p.add_argument("value")
    p.add_argument("--to", type=_integer, required=True)
    p.add_argument("--infinite", action="store_true")
    add_json(p)
    p.set_defaults(func=cmd_repr)

    p = sub.add_parser("digroot", help="digital root, persistence and trajectory")
    p.add_argument("value")
    p.add_argument("--base", type=_integer, required=True)
    add_json(p)
    p.set_defaults(func=cmd_digroot)

    p = sub.add_parser("orbits", help="orbit partition of the residues mod n")
    p.add_argument("--modulus", type=_integer, required=True)
    add_json(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("verify", help="run one invariance check")
    vsub = p.add_subparsers(dest="check", required=True)
    v = vsub.add_parser("main1", help="orbit invariance under division by r^j")
    v.add_argument("--q", required=True)
    v.add_argument("--r", type=_integer, required=True)
    v.add_argument("--base", type=_integer, required=True)
    v.add_argument("--terms", type=_integer, default=5, help="largest exponent j")
    add_json(v)
    v.set_defaults(func=cmd_main1)
    v = vsub.add_parser("main2", help="repetend digit-sum divisibility by base-1")
    v.add_argument("--n", type=_integer, required=True)
    v.add_argument("--s", type=_integer, required=True)
    v.add_argument("--base", type=_integer, required=True)
    add_json(v)
    v.set_defaults(func=cmd_main2)
    v = vsub.add_parser("cor1", help="roots divisible by base-1 stay divisible under /r")
    v.add_argument("--q", required=True)
    v.add_argument("--r", type=_integer, required=True)
    v.add_argument("--base", type=_integer, required=True)
    add_json(v)
    v.set_defaults(func=cmd_cor1)
    v = vsub.add_parser("lemma31", help="digit sum and digital root agree mod base-1")
    v.add_argument("--q", required=True)
    v.add_argument("--base", type=_integer, required=True)
    add_json(v)
    v.set_defaults(func=cmd_lemma31)

    p = sub.add_parser("fuzz", help="enumerate a check over whole input ranges")
    fsub = p.add_subparsers(dest="check", required=True)
    f = fsub.add_parser("main1")
    f.add_argument("--bases", required=True, help="base range, e.g. 2..16")
    f.add_argument("--bound", type=_integer, required=True,
                   help="cap on numerators and smooth denominators")
    f.add_argument("--terms", type=_integer, default=5)
    f.add_argument("--workers", type=_integer, default=None)
    add_json(f)
    f.set_defaults(func=cmd_fuzz)
    f = fsub.add_parser("main2")
    f.add_argument("--bases", required=True)
    f.add_argument("--n-bound", dest="n_bound", type=_integer, required=True)
    f.add_argument("--s-bound", dest="s_bound", type=_integer, required=True)
    f.add_argument("--workers", type=_integer, default=None)
    add_json(f)
    f.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("magic", help="recover the hidden digit of a multiple of base-1")
    p.add_argument("pattern", help="digit string with one '?' placeholder")
    p.add_argument("--base", type=_integer, required=True)
    add_json(p)
    p.set_defaults(func=cmd_magic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Numbers print in full; the caller's int-string limit comes back after.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        inputs, result, text, passed = args.func(args)
        if args.json:
            doc = {"command": args.command, "inputs": inputs, "result": result}
            if passed is not None:
                doc["pass"] = passed
            print(json.dumps(doc, indent=2))
        else:
            print(text)
        # Flush here so a closed reader surfaces inside this try block.
        sys.stdout.flush()
    except (ParseError, DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of the
        # unwritten output does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    finally:
        sys.set_int_max_str_digits(limit)
    return EXIT_VIOLATION if passed is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
