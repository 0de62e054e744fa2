"""Command-line interface.

Each subcommand is declared once, in ``_COMMANDS``: its help, its
``cmd_*`` function and its flags.  Its JSON "inputs" are its arguments in
declaration order, after "check" for ``verify`` and ``fuzz``; ``value`` and
``q`` literals are parsed before the command runs, a ``-`` read from stdin
first.  Each ``cmd_*`` calls the library and returns
``(result, text, passed)``, with ``passed`` None
for commands that check nothing.  ``main`` alone turns that into output
and an exit code: the text, or with ``--json`` the document {"command",
"inputs", "result", "pass"}, where "pass" is present only when ``passed``
is not None.  One rule writes every result record: its ``__slots__``, in declaration order.

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
    type of every integer flag.  Sign checks are left to the library,
    which names the bound it needs."""
    value = radix._decimal(text.removeprefix("-"))
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return -value if text.startswith("-") else value


def _field_dict(report, *skip: str) -> dict:
    """A result record's fields, its ``__slots__``, in declaration order:
    the JSON key order.  Shallow: ``_json_default`` writes nested records."""
    return {name: getattr(report, name) for name in report.__slots__ if name not in skip}


def _json_default(obj) -> dict:
    """How json writes what it cannot: a Rational as two decimal strings,
    any other result record field by field."""
    if isinstance(obj, Rational):
        return {"num": str(obj.num), "den": str(obj.den)}
    return _field_dict(obj)


def cmd_classify(args):
    c = radix.classify(args.value, args.base)
    return c, f"{c.kind.value} rho0={c.rho0} period={c.period}", None


def cmd_repr(args):
    """``repr --base`` and ``convert --to``: one value in one base."""
    base = args.base if args.command == "repr" else args.to
    r = radix._encode(args.value, base, args.infinite)
    text = radix.format_repr(r)
    return {"text": text, **_field_dict(r)}, text, None


def cmd_digroot(args):
    res = digroot.tf_digital_root(args.value, args.base)
    trajectory = ", ".join(str(t) for t in res.trajectory)
    return res, f"root={res.root} persistence={res.persistence} trajectory=[{trajectory}]", None


def cmd_orbits(args):
    part = modring.orbit_partition(args.modulus)
    lines = [
        f"Γ_{d}^{part.modulus} = {{{', '.join(str(m) for m in members)}}}"
        for d, members in part.classes.items()
    ]
    return part, "\n".join(lines), None


def cmd_main1(args):
    rep = theorems.verify_main1(args.q, args.r, args.base, args.terms)
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
    # The public key of a term's label is "orbit".
    terms = [{"j": t.j, "value": t.value, "root": t.root, "orbit": t.orbit_label}
             for t in rep.terms]
    return {**_field_dict(rep, "passed"), "terms": terms}, "\n".join(lines), rep.passed


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
    return _field_dict(rep, "passed"), "\n".join(lines), rep.passed


def cmd_cor1(args):
    holds = theorems.verify_cor1(args.q, args.r, args.base)
    return {"holds": holds}, f"cor1: {'PASS' if holds else 'FAIL'}", holds


def cmd_lemma31(args):
    holds = theorems.verify_lemma_dr(args.q, args.base)
    return {"holds": holds}, f"lemma31: {'PASS' if holds else 'FAIL'}", holds


def cmd_fuzz(args):
    bases = parse_base_range(args.bases)
    if args.check == "main1":
        summary = theorems.fuzz_main1(bases, args.bound, args.terms, workers=args.workers)
    else:
        summary = theorems.fuzz_main2(bases, args.n_bound, args.s_bound, workers=args.workers)
    lines = [
        f"tested={summary.tested} skipped={summary.skipped}"
        f" degenerate={summary.degenerate} failed={summary.failed}"
    ]
    lines += [f"  FAIL {failure}" for failure in summary.failures]
    return summary, "\n".join(lines), summary.failed == 0


def cmd_magic(args):
    res = theorems.solve_missing_digit(args.pattern, args.base)
    rendered = [radix._join_digits([d], args.base) for d in res.candidates]
    text = f"ambiguous: {rendered[0]} or {rendered[1]}" if res.ambiguous else rendered[0]
    return {"digits": res.candidates, "ambiguous": res.ambiguous}, text, None


# Each subcommand once: name -> (help, cmd_*, [(flag, add_argument keywords)]),
# or for a group, name -> (help, {check: the same triple}).  A help of None
# leaves the name out of its group's listing.
_LITERAL = "a/b, an integer, a bracket literal, or - to read stdin"
_VALUE = ("value", {"help": _LITERAL})
_Q = ("--q", {"required": True, "help": _LITERAL})
_INT = {"type": _integer, "required": True}
_BASE = ("--base", _INT)
_WORKERS = ("--workers", {"type": _integer, "default": 1})
_COMMANDS = {
    "classify": ("terminating/repeating classification of a value", cmd_classify,
                 [_VALUE, _BASE]),
    "repr": ("canonical digit representation of a value", cmd_repr, [
        _VALUE, _BASE,
        ("--infinite", {"action": "store_true",
                        "help": "force the repeating form with a trailing repetend"})]),
    "convert": ("re-encode a value in another base", cmd_repr,
                [_VALUE, ("--to", _INT), ("--infinite", {"action": "store_true"})]),
    "digroot": ("digital root, persistence and trajectory", cmd_digroot, [_VALUE, _BASE]),
    "orbits": ("orbit partition of the residues mod n", cmd_orbits, [("--modulus", _INT)]),
    "verify": ("run one invariance check", {
        "main1": ("orbit invariance under division by r^j", cmd_main1, [
            _Q, ("--r", _INT), _BASE,
            ("--terms", {"type": _integer, "default": 5, "help": "largest exponent j"})]),
        "main2": ("repetend digit-sum divisibility by base-1", cmd_main2,
                  [("--n", _INT), ("--s", _INT), _BASE]),
        "cor1": ("roots divisible by base-1 stay divisible under /r", cmd_cor1,
                 [_Q, ("--r", _INT), _BASE]),
        "lemma31": ("digit sum and digital root agree mod base-1", cmd_lemma31, [_Q, _BASE]),
    }),
    "fuzz": ("enumerate a check over whole input ranges", {
        "main1": (None, cmd_fuzz, [
            ("--bases", {"required": True, "help": "base range, e.g. 2..16"}),
            ("--bound", {**_INT, "help": "cap on numerators and smooth denominators"}),
            ("--terms", {"type": _integer, "default": 5}), _WORKERS]),
        "main2": (None, cmd_fuzz, [
            ("--bases", {"required": True}), ("--n-bound", _INT), ("--s-bound", _INT),
            _WORKERS]),
    }),
    "magic": ("recover the hidden digit of a multiple of base-1", cmd_magic,
              [("pattern", {"help": "digit string with one '?' placeholder"}), _BASE]),
}


def _add_commands(parser, table: dict, dest: str, first: tuple = ()) -> None:
    """One subparser per table entry; a leaf records its input names."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, spec in table.items():
        p = sub.add_parser(name, **({"help": spec[0]} if spec[0] else {}))
        if isinstance(spec[1], dict):
            _add_commands(p, spec[1], "check", ("check",))
            continue
        inputs = [*first, *(p.add_argument(flag, **kw).dest for flag, kw in spec[2])]
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.set_defaults(func=spec[1], inputs=inputs)


_PARSER = argparse.ArgumentParser(
    prog="radixroot",
    description="Exact base-k representations, digital roots, orbit structure, "
                "and exhaustive invariance checks.",
)
_add_commands(_PARSER, _COMMANDS, "command")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # Numbers print in full; the caller's int-string limit comes back after.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # Parsed here, not as an argparse type, so a bad literal reports
        # its own position instead of a usage message.  "-" reads it from
        # stdin: Linux refuses one argument over 128 KiB, shorter than a
        # long repetend in comma notation.
        for name in {"value", "q"}.intersection(args.inputs):
            literal = getattr(args, name)
            setattr(args, name, parse_value_literal(sys.stdin.read() if literal == "-" else literal))
        result, text, passed = args.func(args)
        if args.json:
            inputs = {name: getattr(args, name) for name in args.inputs}
            doc = {"command": args.command, "inputs": inputs, "result": result}
            if passed is not None:
                doc["pass"] = passed
            print(json.dumps(doc, indent=2, default=_json_default))
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
