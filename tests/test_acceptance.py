"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All arithmetic is exact, so every comparison is equality; the only
tolerances are the stated wall-clock budgets.
"""

import contextlib
import io
import math
import random
import time
from fractions import Fraction

from radixroot import (
    ParseError,
    Rational,
    classify,
    digit_sum,
    digital_root,
    divisors,
    factorize,
    format_repr,
    fuzz_main1,
    fuzz_main2,
    gcd_class,
    orbit,
    orbit_partition,
    parse,
    residue,
    solve_missing_digit,
    tf_digital_root,
    to_finite,
    to_repeating,
    totient,
    value_of,
    verify_main2,
)
from radixroot.cli import main as cli_main

from oracles import long_division_digits


def _report(cid: str, label: str, failures: list, detail: str = ""):
    verdict = "PASS" if not failures else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {cid} {label}: {verdict}{suffix}")
    assert not failures, failures[:10]


def test_criterion_1_golden_suite():
    started = time.perf_counter()
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    check(value_of(parse("[425]_6")) == Rational(161), "[425]_6 = 161")
    check(to_finite(Rational(161), 6).int_digits == (4, 2, 5), "161 -> [425]_6")
    check(format_repr(to_finite(value_of(parse("[101011]_2")), 3)) == "[1121]_3",
          "[101011]_2 = [1121]_3")
    check(value_of(parse("[2A7E]_16")) == Rational(10878), "[2A7E]_16 = 10878")
    check(value_of(parse("[4.25]_6")) == Rational(161, 36), "[4.25]_6 = 161/36")

    check(digit_sum(7205, 10) == 14, "d_10(7205) = 14")
    check(digital_root(7205, 10).persistence == 2, "A_10(7205) = 2")
    check(digital_root(7205, 10).root == 5, "r_10(7205) = 5")
    check(digit_sum(161, 6) == 11, "d_6(161) = 11")
    check(digital_root(161, 6).persistence == 3, "A_6(161) = 3")
    check(digital_root(161, 6).root == 1, "r_6(161) = 1")
    check(digit_sum(43, 2) == 4, "d_2(43) = 4")
    check(digital_root(43, 2).persistence == 2, "A_2(43) = 2")
    check(digital_root(43, 2).root == 1, "r_2(43) = 1")
    check(digital_root(10878, 16).persistence == 2, "A_16(10878) = 2")
    check(digital_root(10878, 16).root == 3, "r_16(10878) = 3")
    check(tf_digital_root(Rational(1441, 20), 10).root == 5, "tfdr(1441/20) = 5")
    check(tf_digital_root(Rational(43, 32), 2).root == 1, "tfdr(43/32) = 1")

    finite = parse("[4.25]_6")
    alternate = parse("[4.24(5)]_6")
    check(value_of(finite) == value_of(alternate) == Rational(161, 36),
          "[4.25]_6 and [4.24(5)]_6 share a value")
    check(format_repr(to_repeating(Rational(161, 36), 6)) == "[4.24(5)]_6",
          "alternate form renders as [4.24(5)]_6")
    check(parse(format_repr(alternate)) == alternate, "alternate form round trip")

    check(orbit_partition(9).classes
          == {1: (1, 2, 4, 5, 7, 8), 3: (3, 6), 9: (0,)}, "orbit partition of 9")

    printed = {
        7: (2, 8, 5, 7, 1, 4),
        11: (8, 1),
        13: (6, 9, 2, 3, 0, 7),
        17: (5, 2, 9, 4, 1, 1, 7, 6, 4, 7, 0, 5, 8, 8, 2, 3),
    }
    for den, digits in printed.items():
        rep = to_repeating(Rational(9, den), 10)
        check(rep.repetend == digits, f"repetend of 9/{den}")
        root = digital_root(sum(digits), 10).root
        check(root == 9, f"repetend root of 9/{den}")

    expected_progression = ["[25]_8", "[12.4]_8", "[5.2]_8", "[2.5]_8", "[1.24]_8"]
    for j, text in enumerate(expected_progression):
        q = Rational(21) / 2**j
        check(format_repr(to_finite(q, 8)) == text, f"21/2^{j} digits")
        check(tf_digital_root(q, 8).root == 7, f"21/2^{j} root 7")

    check(solve_missing_digit("2?99561", 10).candidates == (4,), "magic digit = 4")

    elapsed = time.perf_counter() - started
    check(elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s")
    _report("C1", "golden example suite", failures, f"({elapsed:.3f}s)")


def _main1_expected_tuple_count(bound: int) -> int:
    count = 0
    for k in range(2, 17):
        proper = [r for r in range(2, k) if k % r == 0]
        if not proper:
            continue
        k_primes = set(factorize(k).primes())
        smooth = [b for b in range(1, bound + 1)
                  if set(factorize(b).primes()) <= k_primes]
        pairs = sum(1 for a in range(1, bound + 1) for b in smooth
                    if math.gcd(a, b) == 1)
        count += len(proper) * pairs
    return count


def test_criterion_2_main1_exhaustive():
    started = time.perf_counter()
    failures = []
    summary = fuzz_main1(range(2, 17), 120, 5, workers=1)
    if summary.failed or summary.failures:
        failures.append(("violations", summary.failures[:5]))
    expected = _main1_expected_tuple_count(120)
    if summary.tested != expected:
        failures.append(("enumeration count", summary.tested, expected))
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _report("C2", "orbit invariance sweep", failures,
            f"({summary.tested} tuples, {elapsed:.2f}s)")


def test_criterion_3_main2_exhaustive():
    started = time.perf_counter()
    failures = []
    tested = skipped = 0
    for k in range(2, 17):
        k_primes = set(factorize(k).primes())
        for s in range(2, 101):
            p = s
            for prime in k_primes:
                while p % prime == 0:
                    p //= prime
            eligible = p >= 2 and math.gcd(p, k - 1) == 1
            for n in range(1, 101):
                if math.gcd(n, s) != 1:
                    continue
                if not eligible:
                    skipped += 1
                    continue
                report = verify_main2(n, s, k)
                tested += 1
                if not report.passed:
                    failures.append(("violation", k, n, s))
                    continue
                if k >= 3 and report.repetend_root != k - 1:
                    failures.append(("root != k-1", k, n, s, report.repetend_root))
                c = classify(Rational(n, s), k)
                t_pp = Fraction(n, s) * k**c.rho0 * (k**c.period - 1)
                if t_pp.denominator != 1 or t_pp.numerator % (k - 1) != 0:
                    failures.append(("t'' chain", k, n, s))
    summary = fuzz_main2(range(2, 17), 100, 100, workers=1)
    if summary.failed or summary.tested != tested or summary.skipped != skipped:
        failures.append(("fuzz summary mismatch", summary.tested, tested))
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _report("C3", "repetend divisibility sweep", failures,
            f"({tested} tuples, {elapsed:.2f}s)")


def test_criterion_4_long_division_equivalence():
    failures = []
    rng = random.Random(0x5EED)
    bases_seen = set()
    for _ in range(2000):
        q = Rational(rng.randint(1, 3000), rng.randint(1, 3000))
        k = rng.randint(2, 16)
        bases_seen.add(k)
        expected = long_division_digits(q.num, q.den, k)
        if classify(q, k).is_terminating:
            r = to_finite(q, k)
        else:
            r = to_repeating(q, k)
        got = (list(r.int_digits), list(r.frac_digits), list(r.repetend))
        if got != expected:
            failures.append((q, k, got, expected))
    if bases_seen != set(range(2, 17)):
        failures.append(("base coverage", sorted(bases_seen)))
    _report("C4", "closed form vs long division", failures, "(2000 rationals)")


def test_criterion_5_orbit_structure():
    failures = []
    for n in range(2, 301):
        part = orbit_partition(n).classes
        if set(part) != set(divisors(n)):
            failures.append(("keys", n))
        covered = []
        for d, members in part.items():
            if orbit(n, residue(d, n)) != members:
                failures.append(("orbit != gcd class", n, d))
            if gcd_class(n, d) != members:
                failures.append(("class mismatch", n, d))
            if len(members) != totient(n // d):
                failures.append(("cardinality", n, d))
            covered.extend(members)
        if sorted(covered) != list(range(n)):
            failures.append(("partition cover", n))
        if sum(totient(d) for d in divisors(n)) != n:
            failures.append(("totient sum", n))
    _report("C5", "orbit structure n in [2,300]", failures)


def test_criterion_6_digital_root_laws():
    failures = []
    for k in range(3, 17):
        for n in range(100001):
            s = digit_sum(n, k)
            if (s - n) % (k - 1) != 0:
                failures.append(("congruence", n, k))
                break
            if not (s <= n and (s == n) == (n < k)):
                failures.append(("bound", n, k))
                break
            root = digital_root(n, k).root
            expected = 0 if n == 0 else 1 + (n - 1) % (k - 1)
            if root != expected:
                failures.append(("closed form", n, k))
                break
    _report("C6", "digital root laws n <= 1e5", failures)


def test_criterion_7_telescoping_identity():
    from radixroot import pow_rational

    failures = []
    for k in range(2, 17):
        for m in range(0, 9):
            for j_max in range(1, 41):
                total = Rational(0)
                for j in range(j_max + 1):
                    total = total + (k - 1) * pow_rational(k, m - 1 - j)
                total = total + pow_rational(k, m - 1 - j_max)
                if total != pow_rational(k, m):
                    failures.append((k, m, j_max))
    _report("C7", "telescoping power identity", failures)


MALFORMED = [
    "", "161", "[161]", "[161]_", "[161]_x", "[161]_1", "[]_10", "[.5]_10",
    "[1.]_10", "[19]_9", "[1z]_10", "[1.2()]_10", "[1.2(3]_10", "[1)2]_10",
    "[1.2.3]_10", "[007]_10", "[0.50]_10", "[1.2(0)]_10", "[1.2(55)]_10",
    "[1,,2]_40", "[1,99.0]_40", "[2A7E]_16extra", "[(5)]_10", "[?]_10",
]


def test_criterion_8_parser_round_trip():
    failures = []
    rng = random.Random(0xD161)
    for _ in range(1000):
        k = rng.randint(2, 40)
        q = Rational(rng.randint(0, 10**6), rng.randint(1, 10**4))
        if q.is_zero or classify(q, k).is_terminating:
            r = to_finite(q, k)
        else:
            r = to_repeating(q, k)
        if parse(format_repr(r)) != r:
            failures.append(("round trip", format_repr(r)))
    for text in MALFORMED:
        try:
            parse(text)
            failures.append(("accepted malformed", text))
        except ParseError as exc:
            if not isinstance(exc.position, int) or exc.position < 0:
                failures.append(("bad position", text))
        except Exception as exc:  # anything else is a panic, not a parse error
            failures.append(("panic", text, repr(exc)))
    _report("C8", "parser round trip and errors", failures, "(1000 cases)")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


CLI_GOLDEN = [
    (["classify", "161/36", "--base", "10"], 0,
     lambda out: out.startswith("repeating")),
    (["classify", "161/36", "--base", "6"], 0,
     lambda out: out.strip() == "terminating rho0=2 period=0"),
    (["classify", "5", "--base", "7"], 0,
     lambda out: out.strip() == "terminating rho0=0 period=0"),
    (["convert", "[101011]_2", "--to", "3"], 0,
     lambda out: out.strip() == "[1121]_3"),
    (["repr", "9/7", "--base", "10"], 0,
     lambda out: out.strip() == "[1.(285714)]_10"),
    (["repr", "161/36", "--base", "6", "--infinite"], 0,
     lambda out: out.strip() == "[4.24(5)]_6"),
    (["digroot", "7205", "--base", "10"], 0,
     lambda out: "root=5" in out and "persistence=2" in out),
    (["digroot", "[2A7E]_16", "--base", "16"], 0,
     lambda out: "root=3" in out and "persistence=2" in out),
    (["digroot", "0", "--base", "9"], 0,
     lambda out: "root=0" in out and "persistence=0" in out),
    (["orbits", "--modulus", "9"], 0,
     lambda out: out.splitlines() == ["Γ_1^9 = {1, 2, 4, 5, 7, 8}",
                                      "Γ_3^9 = {3, 6}", "Γ_9^9 = {0}"]),
    (["orbits", "--modulus", "2"], 0,
     lambda out: out.splitlines() == ["Γ_1^2 = {1}", "Γ_2^2 = {0}"]),
    (["orbits", "--modulus", "6"], 0,
     lambda out: len(out.splitlines()) == 4),
    (["verify", "main1", "--q", "21", "--r", "2", "--base", "8", "--terms", "5"], 0,
     lambda out: out.splitlines()[0] == "main1: PASS"),
    (["verify", "main2", "--n", "9", "--s", "7", "--base", "10"], 0,
     lambda out: out.splitlines()[0] == "main2: PASS" and "repetend=285714" in out),
    (["verify", "main1", "--q", "9/7", "--r", "2", "--base", "10", "--terms", "5"], 2,
     lambda out: out == ""),
    (["fuzz", "main1", "--bases", "2..16", "--bound", "120", "--terms", "5"], 0,
     lambda out: out == "tested=15970 skipped=0 degenerate=0 failed=0\n"),
    (["fuzz", "main1", "--bases", "2..16", "--bound", "120", "--terms", "5", "--workers", "2"],
     0, lambda out: out == "tested=15970 skipped=0 degenerate=0 failed=0\n"),
    (["fuzz", "main2", "--bases", "2..16", "--n-bound", "100", "--s-bound", "100"], 0,
     lambda out: out == "tested=58147 skipped=31658 degenerate=5687 failed=0\n"),
    (["fuzz", "main2", "--bases", "2..16", "--n-bound", "100", "--s-bound", "100",
      "--workers", "2"], 0,
     lambda out: out == "tested=58147 skipped=31658 degenerate=5687 failed=0\n"),
    (["fuzz", "main1", "--bases", "3..3", "--bound", "0", "--terms", "5"], 0,
     lambda out: "tested=0" in out),
    (["magic", "2?99561", "--base", "10"], 0, lambda out: out.strip() == "4"),
    (["magic", "?", "--base", "10"], 0,
     lambda out: out.strip() == "ambiguous: 0 or 9"),
    (["magic", "1?", "--base", "10"], 0, lambda out: out.strip() == "8"),
]


def test_criterion_9_cli_end_to_end():
    failures = []
    for argv, expected_code, stdout_ok in CLI_GOLDEN:
        code, out, _ = _run_cli(argv)
        if code != expected_code:
            failures.append(("exit code", argv, code, expected_code))
        elif not stdout_ok(out):
            failures.append(("stdout", argv, out))
    _report("C9", "CLI end-to-end golden table", failures,
            f"({len(CLI_GOLDEN)} invocations)")
