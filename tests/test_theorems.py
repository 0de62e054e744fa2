import collections
import math
import multiprocessing
import os
import signal
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radixroot import (
    DomainError,
    ParseError,
    PreconditionError,
    Rational,
    format_repr,
    fuzz_main1,
    fuzz_main2,
    solve_missing_digit,
    to_finite,
    tf_digital_root,
    verify_cor1,
    verify_lemma_dr,
    verify_main1,
    verify_main2,
)

from radixroot import radix, theorems
from radixroot.arith import divisors, factorize
from oracles import long_division_digits, main1_roots_brute

COMPOSITE_BASES = [k for k in range(3, 61) if any(k % d == 0 for d in range(2, k))]


def main1_tuples(bases, bound):
    """Every (k, r, a, b) the main1 sweep checks, in (k, r, a, b) order."""
    return [(k, r, a, b)
            for k in bases
            for r in divisors(k)[1:-1]
            for a in range(1, bound + 1)
            for b in range(1, bound + 1)
            if math.gcd(a, b) == 1 and all(k % p == 0 for p in factorize(b).primes())]


def recomputed_main1_pass(report):
    labels_equal = all(t.orbit_label == report.orbit_delta for t in report.terms)
    return labels_equal and report.congruence_ok


def recomputed_main2_pass(report):
    if not report.preconditions_ok:
        return False
    congruent = report.repetend_root % (report.base - 1) == 0
    return congruent and report.t_doubleprime_divisible


def test_lemma_dr_examples():
    assert verify_lemma_dr(Rational(1441, 20), 10)
    assert verify_lemma_dr(Rational(0), 12)
    assert verify_lemma_dr(Rational(161, 36), 6)
    with pytest.raises(DomainError):
        verify_lemma_dr(Rational(9, 7), 10)


def test_main1_base_eight_progression():
    report = verify_main1(Rational(21), 2, 8, 4)
    assert report.passed and report.witness is None
    assert report.orbit_delta == 7
    assert [t.root for t in report.terms] == [7, 7, 7, 7, 7]
    rendered = [format_repr(to_finite(t.value, 8)) for t in report.terms]
    assert rendered == ["[25]_8", "[12.4]_8", "[5.2]_8", "[2.5]_8", "[1.24]_8"]
    assert recomputed_main1_pass(report) == report.passed


def test_main1_decimal_unit_orbit():
    report = verify_main1(Rational(7205), 5, 10, 3)
    assert report.passed
    assert report.orbit_delta == 1
    assert [t.root for t in report.terms] == [5, 1, 2, 4]
    assert all(t.orbit_label == 1 for t in report.terms)


def test_main1_terms_track_divided_values():
    report = verify_main1(Rational(9), 2, 10, 2)
    assert [t.value for t in report.terms] == [Rational(9), Rational(9, 2), Rational(9, 4)]
    assert [t.root for t in report.terms] == [
        tf_digital_root(Rational(9) / 2**j, 10).root for j in range(3)
    ]


@st.composite
def main1_cases(draw):
    """(num, den, r, k, terms) with r a proper divisor of k, den k-smooth,
    and num often carrying primes of r, so num/(den * r^j) reduces."""
    k = draw(st.sampled_from(COMPOSITE_BASES))
    r = draw(st.sampled_from([d for d in range(2, k) if k % d == 0]))
    primes = [p for p, _ in factorize(k).factors]
    den = 1
    for p in draw(st.lists(st.sampled_from(primes), max_size=4)):
        den *= p
    num = draw(st.integers(1, 200)) * r ** draw(st.integers(0, 3))
    return num, den, r, k, draw(st.integers(1, 6))


@settings(max_examples=300)
@given(main1_cases())
@example((4, 1, 2, 12, 6))
@example((8 * 7, 9, 4, 12, 6))
@example((3, 2, 8, 16, 6))
@example((9 * 5, 4, 3, 18, 6))
@example((16 * 11, 3, 16, 48, 6))
def test_main1_roots_match_the_brute_force_oracle(case):
    num, den, r, k, terms = case
    report = verify_main1(Rational(num, den), r, k, terms)
    assert [t.root for t in report.terms] == main1_roots_brute(num, den, r, k, terms)


def test_main1_splits_the_denominator_once(monkeypatch, in_process_children):
    calls = []
    smooth_split = radix._smooth_split

    def counting(den, k):
        calls.append((den, k))
        return smooth_split(den, k)

    monkeypatch.setattr(radix, "_smooth_split", counting)
    monkeypatch.setattr(theorems, "_smooth_split", counting)
    verify_main1(Rational(21, 4), 2, 8, 5)
    assert len(calls) == 1
    calls.clear()
    verify_cor1(Rational(9), 5, 10)
    assert len(calls) == 1
    calls.clear()
    # The sweep splits each k-smooth b once per base, however many
    # cofactors, divisors and slices share it; the chunk runner splits none.
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 2)
    bases, bound = range(4, 13), 12
    per_sweep = [(b, k) for k in bases if len(divisors(k)) > 2
                 for b in range(1, bound + 1) if coprime_part(b, k) == 1]
    for workers in (1, 2):
        calls.clear()
        summary = fuzz_main1(bases, bound, 5, workers=workers)
        assert (summary.tested, summary.failed) == (len(main1_tuples(bases, bound)), 0)
        assert calls == per_sweep
    assert len(in_process_children) == 1
    calls.clear()
    tables = theorems._main1_tables(bases, bound)
    assert calls == per_sweep
    calls.clear()
    cofactors = range(1, bound + 1)
    assert (theorems._run_main1_chunk(cofactors, tables, bound, 5)[:2]
            == (len(main1_tuples(bases, bound)), 0))
    for chunk in (cofactors[:5], cofactors[5:]):
        theorems._run_main1_chunk(chunk, tables, bound, 5)
    assert calls == []


def test_main1_preconditions():
    with pytest.raises(PreconditionError):
        verify_main1(Rational(9), 3, 10, 1)  # 3 does not divide 10
    with pytest.raises(PreconditionError):
        verify_main1(Rational(9), 10, 10, 1)  # r must be proper
    with pytest.raises(PreconditionError):
        verify_main1(Rational(9), 2, 10, 0)  # at least one division
    with pytest.raises(PreconditionError):
        verify_main1(Rational(0), 2, 10, 1)
    with pytest.raises(DomainError):
        verify_main1(Rational(9, 7), 2, 10, 1)


def test_cor1_examples():
    assert verify_cor1(Rational(21), 2, 8)
    assert verify_cor1(Rational(9), 5, 10)
    assert verify_cor1(Rational(18), 2, 10)


def test_cor1_requires_divisible_root():
    with pytest.raises(PreconditionError):
        verify_cor1(Rational(5), 2, 10)


def test_cor1_holds_across_small_sweep():
    from radixroot import classify

    for k in (4, 6, 8, 9, 10, 12):
        proper = [r for r in range(2, k) if k % r == 0]
        for a in range(1, 61):
            q = Rational(a)
            if tf_digital_root(q, k).root % (k - 1) != 0:
                continue
            for r in proper:
                assert verify_cor1(q, r, k)
                assert classify(q / r, k).is_terminating


def test_main2_decimal_prime_denominators():
    for s, repetend in [(7, (2, 8, 5, 7, 1, 4)), (11, (8, 1)), (13, (6, 9, 2, 3, 0, 7))]:
        report = verify_main2(9, s, 10)
        assert report.passed
        assert report.repetend == repetend
        assert report.repetend_root == 9
        assert report.t_doubleprime_divisible
        assert recomputed_main2_pass(report) == report.passed


def test_main2_base_eight_fifth_powers():
    # digits cross-checked against schoolbook long division
    for s in (5, 25):
        report = verify_main2(21, s, 8)
        assert report.passed
        assert report.repetend_root == 7
        assert list(report.repetend) == long_division_digits(21, s, 8)[2]
    assert verify_main2(21, 5, 8).repetend == (1, 4, 6, 3)


def test_main2_rejects_reducible_fraction():
    with pytest.raises(DomainError):
        verify_main2(9, 12, 10)
    with pytest.raises(PreconditionError):
        verify_main2(0, 7, 10)
    with pytest.raises(PreconditionError):
        verify_main2(True, 7, 10)
    with pytest.raises(PreconditionError):
        verify_main2(9, 1, 10)


def test_main2_precondition_failures_report_not_raise():
    report = verify_main2(1, 8, 10)  # terminating: no repetend at all
    assert not report.passed and not report.preconditions_ok
    assert report.p_part == 1 and "terminates" in report.reason
    report = verify_main2(1, 3, 10)  # p-part shares a factor with 9
    assert not report.passed and not report.preconditions_ok
    assert report.p_part == 3 and "gcd" in report.reason
    assert recomputed_main2_pass(report) == report.passed


def test_main2_degenerate_base_two():
    report = verify_main2(1, 3, 2)
    assert report.passed
    assert report.repetend == (0, 1)
    assert report.repetend_root == 1


@given(st.integers(1, 40), st.integers(2, 40), st.integers(3, 16))
def test_main2_property(n, s, k):
    if math.gcd(n, s) != 1:
        return
    report = verify_main2(n, s, k)
    if report.preconditions_ok:
        assert report.passed
        assert report.repetend_root == k - 1


def t_doubleprime_bignum(n, s, k, rho0, period):
    """T'' as it was first decided: build n * k^rho0 * (k^period - 1)."""
    scaled = n * k**rho0 * (k**period - 1)
    return scaled % s == 0 and (scaled // s) % (k - 1) == 0


@st.composite
def t_doubleprime_cases(draw):
    k = draw(st.integers(2, 60))
    smooth = math.prod(draw(
        st.lists(st.sampled_from(factorize(k).primes()), max_size=4)
        .filter(lambda ps: math.prod(ps) <= 5000)
    ))
    s = smooth * draw(st.integers(1 if smooth > 1 else 2, 10**4 // smooth))
    n = draw(st.integers(1, 10**4))
    return n, s, k, draw(st.integers(0, 8)), draw(st.integers(1, 80))


@given(t_doubleprime_cases())
@example((1, 7, 10, 0, 6))  # 999999 / 7 = 9 * 15873: divisible
@example((1, 7, 10, 0, 3))  # 999 / 7 is not a natural number
@example((1, 2, 3, 1, 1))   # 1 * 3 * 2 / 2 = 3 is not a multiple of 2
@example((2, 2, 3, 1, 1))   # 2 * 3 * 2 / 2 = 6 is
def test_t_doubleprime_residue_matches_the_bignum_formula(case):
    n, s, k, rho0, period = case
    residue = theorems._t_doubleprime_residue(s, k, rho0, period)
    assert (n * residue % (s * (k - 1)) == 0) == t_doubleprime_bignum(n, s, k, rho0, period)


def test_main2_matches_long_division_when_s_has_a_smooth_part():
    """verify_main2 and the sweep share one setup (the split of s, its
    k^rho0 scaling and the T'' residue), so comparing them cannot catch a
    wrong setup.  Schoolbook long division can: on every README-scale tuple
    whose s has a k-smooth part > 1, the report's repetend is the one long
    division finds, and its T'' verdict is the k^T bignum's, with rho0 and
    T read off that division."""
    checked = 0
    for k in range(2, 17):
        for s in range(2, 101):
            if math.gcd(s, k) == 1:
                continue
            for n in range(1, 101):
                if math.gcd(n, s) != 1:
                    continue
                report = verify_main2(n, s, k)
                if not report.preconditions_ok:
                    continue
                _, regular, repetend = long_division_digits(n, s, k)
                assert report.repetend == tuple(repetend), (n, s, k)
                assert report.t_doubleprime_divisible == t_doubleprime_bignum(
                    n, s, k, len(regular), len(repetend)), (n, s, k)
                checked += 1
    assert checked == 15626


def test_fuzz_main1_small_sweep_has_no_failures():
    summary = fuzz_main1(range(4, 11), 12, 3)
    assert summary.tested > 0
    assert summary.failed == 0 and summary.failures == ()
    assert summary.passed == summary.tested
    assert summary.skipped == 0 and summary.degenerate == 0


def test_fuzz_main1_is_deterministic_and_worker_invariant():
    one = fuzz_main1(range(8, 13), 10, 2)
    again = fuzz_main1(range(8, 13), 10, 2)
    parallel = fuzz_main1(range(8, 13), 10, 2, workers=2)
    assert one == again == parallel


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_fuzz_main1_reports_every_failure_in_order(monkeypatch, in_process_children, workers):
    # A fake root of n % k fails many tuples and differs between bases for
    # one n, so a memo of roots kept past its (k, c), into the next base of
    # the same cofactor, reports wrong failures.  Under every cut, each
    # (k, r, a, b) is owned by exactly one cofactor of one slice.
    monkeypatch.setattr(theorems, "_trajectory", lambda n, k: [n % k])
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 4)
    bases, bound, terms = range(4, 13), 12, 3
    expected = []
    for k, r, a, b in main1_tuples(bases, bound):
        report = verify_main1(Rational(a, b), r, k, terms)
        if not report.passed:
            expected.append({"base": k, "r": r, "num": a, "den": b, "witness": report.witness})
    summary = fuzz_main1(bases, bound, terms, workers=workers)
    assert expected and {f["base"] for f in expected} == {4, 6, 8, 9, 10, 12}
    assert summary.failures == tuple(expected)
    assert summary.failed == len(expected) == summary.tested - summary.passed
    assert summary.tested == len(main1_tuples(bases, bound))


def test_fuzz_main1_verdict_memo_is_scoped_to_one_base_and_divisor(monkeypatch,
                                                                   in_process_children):
    # A fake root of n % 101 % k breaks the law, so README scale gives
    # thousands of distinct root tuples and failures.  One tuple of roots
    # can have different verdicts under another r or in another base, so a
    # memo of verdicts keyed without r, or kept across bases, reports
    # wrong failures; verify_main1 starts from an empty memo for each tuple.
    # The memo of roots is kept per (k, c), and every worker count cuts the
    # cofactors c differently.
    monkeypatch.setattr(theorems, "_trajectory", lambda n, k: [n % 101 % k])
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 4)
    bases, bound, terms = range(2, 17), 120, 5
    expected = []
    tuples = set()
    for k, r, a, b in main1_tuples(bases, bound):
        report = verify_main1(Rational(a, b), r, k, terms)
        tuples.add((k, r, tuple(t.root for t in report.terms)))
        if not report.passed:
            expected.append({"base": k, "r": r, "num": a, "den": b, "witness": report.witness})
    assert len(tuples) > 4000 and len(expected) > 15000
    for workers in (1, 2, 3, 4):
        summary = fuzz_main1(bases, bound, terms, workers=workers)
        assert summary.tested == 15970
        assert summary.failures == tuple(expected)


def without_trailing_zeros(n, k):
    while n % k == 0:
        n //= k
    return n


def coprime_part(a, k):
    """a without its primes that divide k."""
    while (g := math.gcd(a, k)) > 1:
        a //= g
    return a


def test_fuzz_main1_reduces_each_distinct_n_once(monkeypatch):
    # README scale: the 15,970 tuples reach 95,820 values
    # n_j = a * k^rho0 / b * (k/r)^j.  Stripped of their trailing base-k
    # zeros, which leaves every digit sum alone, 6,198 of them are
    # distinct per (k, c), c the k-coprime part of a; each of those is
    # reduced once.  The tuples have 8,016 distinct (k, r, n_0) with n_0
    # stripped the same way, and the kernel runs once for each.
    calls, kernel_calls = [], []

    def counting(n, k):
        calls.append((n, k))
        return trajectory(n, k)

    def counting_kernel(n0, r, k, *rest):
        kernel_calls.append((k, r, n0))
        return kernel(n0, r, k, *rest)

    trajectory, kernel = theorems._trajectory, theorems._main1
    monkeypatch.setattr(theorems, "_trajectory", counting)
    monkeypatch.setattr(theorems, "_main1", counting_kernel)
    summary = fuzz_main1(range(2, 17), 120, 5)
    assert summary.tested == 15970 and summary.failed == 0
    distinct, groups = set(), set()
    for k, r, a, b in main1_tuples(range(2, 17), 120):
        rho0 = next(e for e in range(b) if k**e % b == 0)
        c = coprime_part(a, k)
        distinct.update((k, c, without_trailing_zeros(a * k**rho0 // b * (k // r)**j, k))
                        for j in range(6))
        groups.add((k, r, without_trailing_zeros(a * k**rho0 // b, k)))
    assert len(calls) == len(distinct) == 6198
    assert len(kernel_calls) == len(groups) == 8016


def test_fuzz_main1_lists_every_den_of_a_shared_n0(monkeypatch):
    # 3/1, 3/10 and 3/100 share n_0 = 3 in base 10, so the sweep runs the
    # kernel once for the three.  A fake root of n % k fails them at j = 1
    # (roots 3 and 5: 2 * 5 - 3 != 0 mod 9), and each is still listed.
    monkeypatch.setattr(theorems, "_trajectory", lambda n, k: [n % k])
    failures = fuzz_main1([10], 100, 3).failures
    for b in (1, 10, 100):
        assert verify_main1(Rational(3, b), 2, 10, 3).witness == 1
        assert {"base": 10, "r": 2, "num": 3, "den": b, "witness": 1} in failures
    assert len(failures) == len(set(tuple(f.values()) for f in failures))


def test_sweeps_hand_plain_ranges_at_a_large_bound(monkeypatch):
    # At bound 3000 a list of every (k, r, a, b) tuple would hold 833,928
    # entries, about 65 MiB, before the first verdict; the sweeps hand
    # over one range of cofactors or denominators instead.  main1's runner
    # also holds one table per composite base: its proper divisors and
    # its k-smooth b <= bound, each with one scale.
    handed = []

    def recording(runner, items, workers, cost=None):
        handed.append((runner.keywords, items, workers))
        return theorems.FuzzSummary(0, 0, 0, 0, 0, ())

    monkeypatch.setattr(theorems, "_run_chunked", recording)
    fuzz_main1(range(2, 17), 3000, 5, workers=2)
    fuzz_main2(range(2, 17), 3000, 3000, workers=2)
    (main1, cofactors, workers1), (main2, denominators, workers2) = handed
    assert (cofactors, workers1, denominators, workers2) == (range(1, 3001), 2, range(2, 3001), 2)
    assert main2["bases"] == list(range(2, 17))
    composite = [k for k in range(2, 17) if len(divisors(k)) > 2]
    assert [(k, proper) for k, proper, _ in main1["tables"]] == [
        (k, divisors(k)[1:-1]) for k in composite]
    assert [[b for b, _ in smooth] for _, _, smooth in main1["tables"]] == [
        [b for b in range(1, 3001) if coprime_part(b, k) == 1] for k in composite]


def test_fuzz_main1_empty_ranges():
    assert fuzz_main1(range(3, 4), 50, 3).tested == 0  # prime base: no proper divisor
    assert fuzz_main1(range(2, 17), 0, 3).tested == 0
    assert fuzz_main1([], 100, 3).tested == 0


def test_fuzz_main2_small_sweep():
    summary = fuzz_main2(range(2, 7), 10, 10)
    assert summary.failed == 0 and summary.failures == ()
    assert summary.tested > 0
    assert summary.skipped > 0
    assert summary.degenerate > 0  # base 2 tuples run but are mod-1 trivial
    coprime_pairs = sum(
        1 for n in range(1, 11) for s in range(2, 11) if math.gcd(n, s) == 1
    )
    assert summary.tested + summary.skipped == 5 * coprime_pairs


def root_by_parity(total, k):
    """A fake trajectory: k-1 when total / (k-1) is odd, else 1.  Real digit
    sums are multiples of k-1, so in bases above 2 it fails about half of
    the tuples, by their digit sums."""
    return [k - 1 if total // (k - 1) % 2 else 1]


def test_fuzz_main2_worker_invariant(monkeypatch):
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 3)
    assert fuzz_main2(range(9, 12), 8, 8) == fuzz_main2(range(9, 12), 8, 8, workers=2)
    # 8 denominators in contiguous slices of equal cost, 4 and 4, or 3, 2
    # and 3: every chunk runs its denominators in all 5 bases.
    one = fuzz_main2(range(9, 14), 12, 9)
    assert one.tested > 0 and one.skipped > 0
    assert one == fuzz_main2(range(9, 14), 12, 9, workers=2)
    assert one == fuzz_main2(range(9, 14), 12, 9, workers=3)
    # At README scale, with a fake root that fails about half the tuples.
    monkeypatch.setattr(theorems, "_trajectory", root_by_parity)
    one = fuzz_main2(range(2, 17), 100, 100)
    assert one.failed > 10000 and one.passed > 10000
    assert one == fuzz_main2(range(2, 17), 100, 100, workers=2)
    assert one == fuzz_main2(range(2, 17), 100, 100, workers=3)


def main2_chunk_failures(k, s, n_bound):
    """The sweep kernel over one (k, s): None when (k, s) fails main2's
    preconditions (n = 1 is always a numerator, so some tuple is skipped),
    else the failing n in order."""
    _, _, skipped, _, failures = theorems._run_main2_chunk([s], [k], n_bound)
    return None if skipped else [f["n"] for f in failures]


def test_fuzz_main2_sums_equal_the_single_tuple_kernel(monkeypatch):
    """Every README-scale tuple is decided by the digit sum of its own real
    repetend, and the sweep kernel's T'' verdicts are those of the
    single-tuple kernel.  For each (k, s) and each digit sum D that its
    full repetends reach, a fake root that fails D alone must fail exactly
    the numerators whose repetend sums to D.  In base 2 every root is
    0 mod k-1, so there only T'' decides."""
    trajectory = theorems._trajectory
    tested, skipped, decided_by_sum = 0, [], 0
    for k in range(2, 17):
        for s in range(2, 101):
            numerators = [n for n in range(1, 101) if math.gcd(n, s) == 1]
            reports = [verify_main2(n, s, k) for n in numerators]
            failing = main2_chunk_failures(k, s, 100)
            if failing is None:
                skipped += [r.preconditions_ok for r in reports]
                continue
            tested += len(reports)
            assert failing == [r.n for r in reports if not r.t_doubleprime_divisible]
            sums = [sum(r.repetend) for r in reports]
            for total in dict.fromkeys(sums) if k > 2 else ():
                fails_total = (lambda t, k, total=total:
                               [1] if t == total else trajectory(t, k))
                monkeypatch.setattr(theorems, "_trajectory", fails_total)
                failing = main2_chunk_failures(k, s, 100)
                monkeypatch.setattr(theorems, "_trajectory", trajectory)
                assert failing == [n for n, d in zip(numerators, sums) if d == total]
                decided_by_sum += len(failing)
    assert tested == 58147 and len(skipped) == 31658 and not any(skipped)
    assert decided_by_sum == tested - 5687  # every tuple but the degenerate ones


def test_main2_chunk_memo_is_keyed_by_base_and_p(monkeypatch):
    """One chunk of many denominators in many bases, with a fake root that
    fails tuples by their digit sums, gives the counts and failures of a
    loop of the single-tuple kernel: a cycle verdict kept for one base is
    never used in another."""
    monkeypatch.setattr(theorems, "_trajectory", root_by_parity)
    bases, bound = range(3, 17), 100
    reports = [verify_main2(n, s, k)
               for s in range(2, bound + 1)
               for k in bases
               for n in range(1, bound + 1) if math.gcd(n, s) == 1]
    tested = [r for r in reports if r.preconditions_ok]
    failures = [{"base": r.base, "n": r.n, "s": r.s} for r in tested if not r.passed]
    assert 10000 < len(failures) < len(tested) - 10000
    got = theorems._run_main2_chunk(range(2, bound + 1), bases, bound)
    assert got == (len(tested), len(failures), len(reports) - len(tested), 0, failures)


@pytest.mark.parametrize("k", [3, 10, 16])
def test_main2_chunk_divides_each_unit_cycle_once(monkeypatch, k):
    """A chunk divides every unit remainder mod p once, one long-division
    step each, for each p its denominators reach, however many
    s = smooth * p share that p."""
    divided = []

    def counting(a, b):
        divided.append((a // k, b))  # the remainder divided, and p
        return divmod(a, b)

    monkeypatch.setattr(theorems, "divmod", counting, raising=False)
    denominators = range(2, 400)
    theorems._run_main2_chunk(denominators, [k], 50)
    setups = {s: theorems._main2_setup(s, k) for s in denominators}
    p_of = {s: split[1] for s, (split, ok) in setups.items() if ok}
    assert max(collections.Counter(p_of.values()).values()) >= 4
    units = sorted((rem, p) for p in set(p_of.values())
                   for rem in range(1, p) if math.gcd(rem, p) == 1)
    assert sorted(divided) == units


def test_main2_chunk_finds_each_order_once(monkeypatch):
    """T = ord_p(k) depends on (k, p) alone: a README-scale chunk looks it
    up once for each of its 481 distinct (k, p), not once per (k, s)."""
    calls = []
    order = theorems.multiplicative_order

    def counting(k, p):
        calls.append((k, p))
        return order(k, p)

    monkeypatch.setattr(theorems, "multiplicative_order", counting)
    theorems._run_main2_chunk(range(2, 101), range(2, 17), 100)
    assert len(calls) == len(set(calls)) == 481


def test_main2_fake_root_failing_one_cycle_fails_its_numerators(monkeypatch):
    """In base 10 the units mod 79 make 6 remainder cycles of 13 digits, and
    only one has digit sum 45.  A root that fails 45 alone fails, for every
    s = smooth * 79, exactly the n whose repetend is a rotation of that
    cycle's, by schoolbook long division."""
    k, p, bound = 10, 79, 100

    def cycle_of(num, den):
        r = tuple(long_division_digits(num, den, k)[2])
        return min(r[i:] + r[:i] for i in range(len(r)))

    cycles = {cycle_of(u, p) for u in range(1, p)}
    failing_cycle, = (c for c in cycles if sum(c) == 45)
    assert len(cycles) == 6
    trajectory = theorems._trajectory
    monkeypatch.setattr(theorems, "_trajectory",
                        lambda t, k: [1] if t == 45 else trajectory(t, k))
    denominators = [p * m for m in (1, 2, 4, 5, 8, 10)]
    expected = [{"base": k, "n": n, "s": s}
                for s in denominators for n in range(1, bound + 1)
                if math.gcd(n, s) == 1 and cycle_of(n, s) == failing_cycle]
    assert {f["s"] for f in expected} == set(denominators)
    got = theorems._run_main2_chunk(denominators, [k], bound)
    assert got[4] == expected and got[1] == len(expected) < got[0]


@st.composite
def main2_sweep_cases(draw):
    """A base k <= 40, a denominator s <= 2000 with a k-smooth part (every
    k-smooth m <= 2000 divides k^11) and a numerator bound n <= 300."""
    k = draw(st.integers(2, 40))
    smooth = draw(st.sampled_from([m for m in range(1, 2001) if k**11 % m == 0]))
    s = smooth * draw(st.integers(1 if smooth > 1 else 2, 2000 // smooth))
    return k, s, draw(st.integers(1, 300))


@settings(max_examples=50)
@given(main2_sweep_cases())
@example((10, 2 * 983, 300))  # T = ord_983(10) = 982
@example((2, 2 * 997, 300))   # base 2: degenerate
@example((31, 31 * 64, 20))   # p = 64 shares 2 with k-1: skipped
def test_main2_sweep_kernel_matches_the_single_tuple_kernel(case):
    """Beyond README scale, the sweep's counts and failures equal those of
    a loop of the single-tuple kernel over the same tuples, with real
    roots and with a fake root that fails tuples by their digit sums."""
    k, s, n_bound = case
    for fake in (None, root_by_parity):
        with pytest.MonkeyPatch.context() as mp:
            if fake:
                mp.setattr(theorems, "_trajectory", fake)
            reports = [verify_main2(n, s, k)
                       for n in range(1, n_bound + 1) if math.gcd(n, s) == 1]
            got = theorems._run_main2_chunk([s], [k], n_bound)
        tested = [r for r in reports if r.preconditions_ok]
        failures = [{"base": k, "n": r.n, "s": s} for r in tested if not r.passed]
        assert got == (len(tested), len(failures), len(reports) - len(tested),
                       len(tested) if k == 2 else 0, failures)


@pytest.mark.parametrize("workers", [1, 2])
def test_fuzz_main2_reports_every_failure_in_order(monkeypatch, workers):
    # Every root is 1, which is 0 mod k-1 only for k = 2.
    monkeypatch.setattr(theorems, "_trajectory", lambda n, k: [1])
    bases, bound = range(2, 7), 9
    reports = [
        verify_main2(n, s, k)
        for k in bases
        for n in range(1, bound + 1)
        for s in range(2, bound + 1)
        if math.gcd(n, s) == 1
    ]
    expected = [{"base": r.base, "n": r.n, "s": r.s}
                for r in reports if r.preconditions_ok and not r.passed]
    summary = fuzz_main2(bases, bound, bound, workers=workers)
    assert expected and all(f["base"] >= 3 for f in expected)
    assert summary.failures == tuple(expected)
    assert summary.failed == len(expected) == summary.tested - summary.passed
    assert summary.tested - summary.failed == summary.degenerate  # only k = 2 passes


def test_main2_reports_a_nonzero_t_doubleprime_residue(monkeypatch):
    # Under main2's preconditions p * (k-1) divides k^T - 1, so the real
    # T'' residue is always 0.  A fake residue of 1 is nonzero times every
    # n coprime to s, so every tested tuple must fail, in verify_main2 and
    # in the sweep, whose children are forked after the patch.
    monkeypatch.setattr(theorems, "_t_doubleprime_residue", lambda s, k, rho0, period: 1)
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 2)
    bases, bound = range(2, 8), 12
    tested = [report
              for k in bases
              for n in range(1, bound + 1)
              for s in range(2, bound + 1)
              if math.gcd(n, s) == 1 and (report := verify_main2(n, s, k)).preconditions_ok]
    assert tested and not any(r.t_doubleprime_divisible or r.passed for r in tested)
    assert any(r.repetend_root % (r.base - 1) == 0 for r in tested)  # failed by T'' alone
    expected = tuple({"base": r.base, "n": r.n, "s": r.s} for r in tested)
    for workers in (1, 2):
        summary = fuzz_main2(bases, bound, bound, workers=workers)
        assert summary.failures == expected
        assert summary.failed == summary.tested == len(expected)


class InProcessChild:
    """Stands in for a child and its pipe from ``_start_slice``: runs its
    slice in this process when the parent reads its result, so that every
    slice's runner call is seen here, the parent's first."""

    def __init__(self, runner, part):
        self.runner, self.part = runner, part

    def recv(self):
        return True, self.runner(self.part)

    def terminate(self):
        pass

    def join(self):
        pass

    def close(self):
        pass


@pytest.fixture
def in_process_children(monkeypatch):
    """Start each child as an InProcessChild; the list of slices handed to
    children, in order."""
    started = []

    def start(runner, part):
        started.append(part)
        child = InProcessChild(runner, part)
        return child, child

    monkeypatch.setattr(theorems, "_start_slice", start)
    return started


def recording(monkeypatch, name):
    """Wrap the chunk runner ``theorems.<name>``; the list of (chunk, result)
    of each of its calls in this process."""
    calls = []
    runner = getattr(theorems, name)

    def record(chunk, *args, **kwargs):
        result = runner(chunk, *args, **kwargs)
        calls.append((chunk, result))
        return result

    monkeypatch.setattr(theorems, name, record)
    return calls


def test_run_chunked_opens_one_worker_per_chunk(monkeypatch, in_process_children):
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 8)
    # 11 denominators cut at equal cost make 5 chunks of 3, 2, 2, 2 and 2:
    # this process runs the first, and one child each of the other four.
    summary = fuzz_main2(range(5, 6), 10, 12, workers=5)
    assert in_process_children == [range(5, 7), range(7, 9), range(9, 11), range(11, 13)]
    assert summary == fuzz_main2(range(5, 6), 10, 12)


def test_run_chunked_deals_contiguous_slices(monkeypatch, in_process_children):
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 8)
    chunks = []

    def runner(chunk):
        chunks.append(chunk)
        return len(chunk), 0, 0, 0, []

    summary = theorems._run_chunked(runner, range(11), 5)
    assert chunks == [range(0, 2), range(2, 4), range(4, 6), range(6, 8), range(8, 11)]
    assert in_process_children == chunks[1:]
    assert summary.tested == 11


def test_run_chunked_opens_at_most_one_worker_per_cpu(monkeypatch, in_process_children):
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 2)
    summary = fuzz_main2(range(5, 6), 10, 12, workers=5000)
    assert len(in_process_children) == 1
    assert summary == fuzz_main2(range(5, 6), 10, 12)


def test_run_chunked_counts_only_the_cpus_it_may_use(monkeypatch, in_process_children):
    # Pinned to CPU 0 of an 8-CPU machine, as under `taskset -c 0`.
    monkeypatch.setattr(theorems.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 8)
    summary = fuzz_main2(range(5, 6), 10, 12, workers=2)
    assert in_process_children == []
    assert summary == fuzz_main2(range(5, 6), 10, 12)


def test_cpu_count_falls_back_without_affinity(monkeypatch):
    monkeypatch.delattr(theorems.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 3)
    assert theorems._cpu_count() == 3
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: None)
    assert theorems._cpu_count() == 1


def main1_cost(bases, bound):
    """The cost of each cofactor c = 1..bound, counted from scratch: in each
    composite base k coprime to c, its k-smooth b <= bound plus its
    k-smooth s <= bound // c."""
    smooth = {k: [b for b in range(1, bound + 1) if coprime_part(b, k) == 1]
              for k in bases if len(divisors(k)) > 2}
    return {c: sum(len(values) + sum(s <= bound // c for s in values)
                   for k, values in smooth.items() if math.gcd(c, k) == 1)
            for c in range(1, bound + 1)}


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_main1_chunks_share_the_work_evenly(monkeypatch, in_process_children, workers):
    # Every cofactor c lands in one non-empty chunk, in order, and each
    # chunk costs less than one cofactor more or less than an even share.
    # Cofactors are not even in tuples: c = 1 alone owns every k-smooth
    # numerator of every base.
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 4)
    calls = recording(monkeypatch, "_run_main1_chunk")
    for bases, bound in (range(2, 17), 120), (range(2, 37), 300):
        calls.clear()
        in_process_children.clear()
        summary = fuzz_main1(bases, bound, 5, workers=workers)
        chunks = [chunk for chunk, _ in calls]
        assert len(chunks) == workers and all(chunks) and in_process_children == chunks[1:]
        assert [c for chunk in chunks for c in chunk] == list(range(1, bound + 1))
        cost = main1_cost(bases, bound)
        costs = [sum(cost[c] for c in chunk) for chunk in chunks]
        share = sum(costs) / workers
        assert all(abs(chunk_cost - share) < max(cost.values()) for chunk_cost in costs)
        assert summary == fuzz_main1(bases, bound, 5)


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("bases, n_bound, s_bound", [(range(2, 17), 100, 100), ([10], 300, 1000)])
def test_main2_chunks_are_cut_at_equal_cost(monkeypatch, in_process_children, workers, bases,
                                            n_bound, s_bound):
    # A denominator s costs n_bound + 4 * s.  Every denominator lands in one
    # non-empty chunk, in order, and each chunk costs less than one
    # denominator more or less than an even share.  Two chunks can then
    # differ by almost two denominators: 7,164 against 7,956 with 4 workers
    # at s <= 100, where s = 100 costs 500.
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 4)
    calls = recording(monkeypatch, "_run_main2_chunk")
    summary = fuzz_main2(bases, n_bound, s_bound, workers=workers)
    chunks = [chunk for chunk, _ in calls]
    assert len(chunks) == workers and all(chunks) and in_process_children == chunks[1:]
    assert [s for chunk in chunks for s in chunk] == list(range(2, s_bound + 1))
    costs = [sum(n_bound + 4 * s for s in chunk) for chunk in chunks]
    share = sum(costs) / workers
    assert all(abs(cost - share) < n_bound + 4 * s_bound for cost in costs)
    assert summary == fuzz_main2(bases, n_bound, s_bound)


def count_chunk(chunk):
    return len(chunk), 0, 0, 0, []


def fail_past_the_first_slice(chunk):
    if chunk[0] != 0:
        raise DomainError(f"no verdict for the slice from {chunk[0]}")
    return count_chunk(chunk)


def fail_in_the_first_slice(chunk):
    if chunk[0] == 0:
        raise DomainError("no verdict for the first slice")
    # More than a pipe's buffer holds, so the child blocks in its send
    # until it is read or ended.
    return len(chunk), 0, 0, 0, [{"base": 10, "n": n, "s": 7} for n in range(20000)]


def started_children(monkeypatch):
    """Record each real child that ``_start_slice`` starts."""
    children = []
    start = theorems._start_slice

    def record(runner, part):
        child, reader = start(runner, part)
        children.append(child)
        return child, reader

    monkeypatch.setattr(theorems, "_start_slice", record)
    return children


def test_run_chunked_raises_a_childs_exception(monkeypatch):
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 3)
    children = started_children(monkeypatch)
    with pytest.raises(DomainError, match=r"^no verdict for the slice from 3$"):
        theorems._run_chunked(fail_past_the_first_slice, range(9), 3)
    assert len(children) == 2 and not any(child.is_alive() for child in children)
    assert multiprocessing.active_children() == []


def time_out(signum, frame):
    # Not an OSError such as TimeoutError: multiprocessing's wait for a child swallows those.
    pytest.fail("the sweep did not return within 30 s")


def test_run_chunked_joins_the_children_when_its_own_slice_raises(monkeypatch):
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 3)
    children = started_children(monkeypatch)
    # Joined while blocked in their sends, the children would never exit:
    # fail after 30 s instead of hanging, and end them.
    handler = signal.signal(signal.SIGALRM, time_out)
    signal.alarm(30)
    try:
        with pytest.raises(DomainError, match=r"^no verdict for the first slice$"):
            theorems._run_chunked(fail_in_the_first_slice, range(9), 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
        for child in children:
            if child.is_alive():
                child.kill()
                child.join()
    assert len(children) == 2
    assert all(child.exitcode is not None for child in children)
    assert multiprocessing.active_children() == []


def exit_past_the_first_slice(chunk):
    if chunk[0] != 0:
        os._exit(3)
    return count_chunk(chunk)


def test_run_chunked_reports_a_child_that_exits_without_a_result(monkeypatch):
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match=r"^a sweep process exited with code 3 before "
                                           r"sending its result$"):
        theorems._run_chunked(exit_past_the_first_slice, range(8), 2)
    assert multiprocessing.active_children() == []


def test_pooled_sweeps_leave_no_child_running(monkeypatch):
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 3)
    children = started_children(monkeypatch)
    for workers in (2, 3):
        started = len(children)
        fuzz_main1(range(2, 11), 30, 3, workers=workers)
        assert multiprocessing.active_children() == []
        fuzz_main2(range(2, 11), 30, 30, workers=workers)
        assert multiprocessing.active_children() == []
        assert len(children) - started == 2 * (workers - 1)
    assert theorems._run_chunked(count_chunk, range(9), 3).tested == 9
    assert multiprocessing.active_children() == []


def test_slices_cut_where_the_cumulative_cost_splits_evenly():
    # README scale: s = 2..100 at n_bound 100 costs 14,949.  Even halves
    # would cost 6,174 and 8,775; the cut after s = 58 gives 7,410 and
    # 7,539.
    assert theorems._slices(range(2, 101), 2, lambda s: 100 + s) == [range(2, 59),
                                                                      range(59, 101)]
    # Slice i ends after the longest prefix costing at most i/parts of the
    # total, so a costly item starts the next slice.
    assert theorems._slices([1, 1, 9, 1, 1, 1], 2, lambda x: x) == [[1, 1], [9, 1, 1, 1]]


def never_called(*args, **kwargs):
    raise AssertionError(f"called with {args}")


def test_serial_sweeps_never_call_their_cost(monkeypatch, in_process_children):
    # One part needs no cut, so no item is costed: not with one worker,
    # one usable CPU, or fewer than two items per worker.
    assert theorems._slices(range(9), 1, never_called) == [range(9)]
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 1)
    assert theorems._run_chunked(count_chunk, range(9), 1, never_called).tested == 9
    assert theorems._run_chunked(count_chunk, range(9), 4, never_called).tested == 9
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 4)
    assert theorems._run_chunked(count_chunk, range(3), 2, never_called).tested == 3
    assert in_process_children == []
    # fuzz_main1's cost reads the k-smooth b of each base by bisection.
    monkeypatch.setattr(theorems, "bisect_right", never_called)
    assert fuzz_main1(range(2, 17), 120, 5).tested == 15970
    with pytest.raises(AssertionError, match="^called with"):
        fuzz_main1(range(2, 17), 120, 5, workers=2)


def test_run_chunked_starts_no_child_for_an_empty_slice(monkeypatch, in_process_children):
    # c = 1 costs as much as 100 others, so even quarters of the cost leave
    # the first two slices empty: this process runs the first non-empty
    # slice, and one child the other.
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 4)
    items = list(range(1, 51))

    def cost(c):
        return 100 if c == 1 else 1

    assert [len(part) for part in theorems._slices(items, 4, cost)] == [0, 0, 12, 38]
    chunks = []

    def runner(chunk):
        chunks.append(chunk)
        return count_chunk(chunk)

    assert theorems._run_chunked(runner, items, 4, cost).tested == 50
    assert chunks == [items[:12], items[12:]] and in_process_children == [items[12:]]


def test_main1_sweeps_deal_no_empty_slice(monkeypatch, in_process_children):
    monkeypatch.setattr(theorems, "_cpu_count", lambda: 4)
    calls = recording(monkeypatch, "_run_main1_chunk")
    # c = 1 costs more than a quarter of the total, so the cut is 0, 4, 4
    # and 4 cofactors: three slices run, this process taking c = 1..4.
    summary = fuzz_main1(range(4, 13), 12, 3, workers=4)
    assert [chunk for chunk, _ in calls] == [range(1, 5), range(5, 9), range(9, 13)]
    assert in_process_children == [range(5, 9), range(9, 13)]
    assert summary == fuzz_main1(range(4, 13), 12, 3)
    # No composite base: every cofactor costs 0, and the sweep runs serially.
    calls.clear()
    in_process_children.clear()
    assert fuzz_main1([2, 3, 5, 7], 50, workers=2).tested == 0
    assert [chunk for chunk, _ in calls] == [range(1, 51)] and in_process_children == []


def test_main1_chunk_drops_the_tables_of_each_cofactor():
    # The memo of roots and the groups of one (k, c) are dropped when that
    # (k, c) is done.  Kept per base for the whole chunk, the roots alone
    # would reach about 6.6 MiB here.
    tables = theorems._main1_tables(range(2, 37), 300)
    tracemalloc.start()
    try:
        result = theorems._run_main1_chunk(range(1, 301), tables, 300, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result[:2] == (228818, 0)
    assert peak < 2**20


def test_fuzz_rejects_bad_worker_count():
    with pytest.raises(PreconditionError):
        fuzz_main1(range(4, 5), 5, 2, workers=0)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: fuzz_main1(range(4, 7), -5, 3),
        lambda: fuzz_main1([], -1, 3),
        lambda: fuzz_main1(range(4, 7), 5, 0),
        lambda: fuzz_main2(range(4, 7), -5, 5),
        lambda: fuzz_main2(range(4, 7), 5, -5),
        lambda: fuzz_main2([], 5, 5, workers=0),
    ],
)
def test_fuzz_rejects_negative_bounds_before_enumerating(sweep):
    with pytest.raises(PreconditionError):
        sweep()


def test_solve_missing_digit_examples():
    assert solve_missing_digit("2?99561", 10).candidates == (4,)
    result = solve_missing_digit("?", 10)
    assert result.ambiguous and result.candidates == (0, 9)
    assert solve_missing_digit("1?", 10).candidates == (8,)
    assert not solve_missing_digit("1?", 10).ambiguous


def test_solve_missing_digit_other_bases():
    assert solve_missing_digit("F?", 16).candidates == (0, 15)
    assert solve_missing_digit("2?", 8).candidates == (5,)
    assert solve_missing_digit("?", 2).candidates == (0, 1)
    assert solve_missing_digit("10,?", 40).candidates == (29,)


def test_solve_missing_digit_errors():
    with pytest.raises(PreconditionError):
        solve_missing_digit("123", 10)
    with pytest.raises(PreconditionError):
        solve_missing_digit("1??", 10)
    with pytest.raises(ParseError):
        solve_missing_digit("1x?", 10)
    with pytest.raises(ParseError):
        solve_missing_digit("9?", 8)


@pytest.mark.parametrize(
    "pattern, k",
    [("1,\u00b2,?", 40), ("\u0661?", 10), ("\u0131?", 36), ("1,,?", 40), ("40,?", 40)],
)
def test_solve_missing_digit_rejects_non_ascii_and_bad_tokens(pattern, k):
    with pytest.raises(ParseError) as excinfo:
        solve_missing_digit(pattern, k)
    assert 0 <= excinfo.value.position <= len(pattern)


@given(st.one_of(st.text(), st.text(alphabet="0123456789aZ,?\u00b2\u0661")), st.integers(2, 60))
def test_patterns_raise_only_parse_or_precondition_errors(pattern, k):
    try:
        solve_missing_digit(pattern, k)
    except ParseError as exc:
        assert 0 <= exc.position <= len(pattern)
    except PreconditionError:
        pass
