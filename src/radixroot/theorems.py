"""Executable verifiers for the digital-root invariance laws.

main1: dividing a terminating fractional by powers of a proper divisor r
of the base k never moves its digital root out of its gcd-class orbit in
the residues mod k-1, and r^j * R_j stays congruent to R_0 mod k-1.

main2: an irreducible fraction whose denominator has a part p >= 2 coprime
to both k and k-1 is repeating in base k, and the digit sum of its
repetend is divisible by k-1 (so the repetend's digital root is k-1).

For k = 2 the modulus k-1 collapses to 1 and every congruence holds:
``fuzz_main2`` counts such cases as degenerate, and main1 has no base 2.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

from .arith import Rational, _decimal_text, _require_int, divisors, factorize
from .digroot import _digit_sum, _trajectory
from .errors import DomainError, PreconditionError
from .modring import _orbit_label
from .radix import (_repetend, _scaled, _smooth_split, _terminating_split, _tokenize,
                    multiplicative_order)


def verify_lemma_dr(q: Rational, k: int) -> bool:
    """Digit sum and digital root of a terminating fractional agree mod k-1."""
    n = _scaled(q.num, k, _terminating_split(q, k))
    return (_digit_sum(n, k) - _trajectory(n, k)[-1]) % (k - 1) == 0


def _require_main1_args(q: Rational, r: int, k: int) -> tuple[int, int, int]:
    """Preconditions shared by verify_main1 and verify_cor1; returns the
    split of q's denominator."""
    split = _terminating_split(q, k)
    if _require_int(r, "r", 2, PreconditionError) >= k or k % r != 0:
        raise PreconditionError(f"r must be a divisor of {_decimal_text(k)} with 2 <= r < "
                                f"{_decimal_text(k)}, got {_decimal_text(r)}")
    if q.is_zero:
        raise PreconditionError("q must be positive")
    return split


def _main1(n0: int, r: int, k: int, terms_max: int, memo: dict[int, int],
           verdicts: dict[tuple[int, ...], tuple[bool, int | None]],
           ) -> tuple[tuple[int, ...], bool, int | None]:
    """The main1 kernel for q = n0 / k^rho0, with n0 = k^rho0 * q an
    integer: the roots R_j of q/r^j for j = 0..terms_max, whether every
    r^j * R_j = R_0 mod k-1, and the first j whose root leaves the orbit
    of R_0 or breaks that congruence.

    Terms are stepped by k/r: n_j = n0 * (k/r)^j = k^(rho0+j) * q/r^j is
    an integer, and it is the minimal-exponent value of q/r^j times some
    k^m, which only appends m zero digits, so its root is that of q/r^j.
    For the same reason n_j is stripped of its trailing base-k zeros
    before it is looked up, and the result depends on n0 only through n0
    without its trailing zeros.  ``memo`` maps a stripped n to its base-k
    root, an iterated digit sum of real digits, never n mod k-1.
    ``verdicts`` maps a tuple of roots to its (congruence_ok, witness),
    which depends on nothing else for one (k, r, terms_max).  A miss in
    either is computed and added; the caller decides both scopes.
    """
    step = k // r
    n = n0
    roots = []
    for _ in range(terms_max + 1):
        while n % k == 0:
            n //= k
        root = memo.get(n)
        if root is None:
            root = memo[n] = _trajectory(n, k)[-1]
        roots.append(root)
        n *= step
    roots = tuple(roots)
    verdict = verdicts.get(roots)
    if verdict is None:
        modulus = k - 1
        root0 = roots[0]
        label0 = _orbit_label(modulus, root0)
        congruence_ok, witness, power = True, None, 1
        for j in range(1, terms_max + 1):
            root = roots[j]
            power = power * r % modulus  # r^j mod k-1
            congruent = (power * root - root0) % modulus == 0
            congruence_ok = congruence_ok and congruent
            if witness is None and not (congruent and _orbit_label(modulus, root) == label0):
                witness = j
        verdict = verdicts[roots] = congruence_ok, witness
    return (roots, *verdict)


@dataclass(frozen=True, slots=True)
class Main1Term:
    j: int
    value: Rational
    root: int
    orbit_label: int


@dataclass(frozen=True, slots=True)
class Main1Report:
    base: int
    q: Rational
    r: int
    terms: tuple[Main1Term, ...]
    orbit_delta: int
    congruence_ok: bool
    passed: bool
    witness: int | None


def verify_main1(q: Rational, r: int, k: int, terms_max: int) -> Main1Report:
    """Check main1 for q, q/r, ..., q/r^terms_max: every root R_j lies in
    the orbit of R_0 mod k-1, and r^j * R_j = R_0 mod k-1."""
    split = _require_main1_args(q, r, k)
    _require_int(terms_max, "terms", 1, PreconditionError)
    roots, congruence_ok, witness = _main1(_scaled(q.num, k, split), r, k, terms_max, {}, {})
    terms = tuple(
        Main1Term(j, Rational(q.num, q.den * r**j), root, _orbit_label(k - 1, root))
        for j, root in enumerate(roots)
    )
    return Main1Report(
        base=k,
        q=q,
        r=r,
        terms=terms,
        orbit_delta=terms[0].orbit_label,
        congruence_ok=congruence_ok,
        passed=witness is None,
        witness=witness,
    )


def verify_cor1(q: Rational, r: int, k: int) -> bool:
    """If the root of q is divisible by k-1, so is the root of q/r."""
    n0 = _scaled(q.num, k, _require_main1_args(q, r, k))
    root0, root1 = _main1(n0, r, k, 1, {}, {})[0]
    if root0 % (k - 1) != 0:
        raise PreconditionError(
            f"digital root of {q} is not divisible by {_decimal_text(k - 1)}")
    return root1 % (k - 1) == 0


@dataclass(frozen=True, slots=True)
class Main2Report:
    base: int
    n: int
    s: int
    smooth_part: int
    p_part: int
    preconditions_ok: bool
    repetend: tuple[int, ...]
    repetend_root: int | None
    t_doubleprime_divisible: bool
    passed: bool
    reason: str | None = None


def _t_doubleprime_residue(s: int, k: int, rho0: int, period: int) -> int:
    """k^rho0 * (k^period - 1) mod s*(k-1), without the k^period bignum.

    n * k^rho0 * (k^period - 1) / s is a natural number divisible by k-1
    exactly when n times this residue is 0 mod s*(k-1).
    """
    modulus = s * (k - 1)
    return pow(k, rho0, modulus) * (pow(k, period, modulus) - 1) % modulus


def _main2_setup(s: int, k: int) -> tuple[int, int, tuple[int, int, int] | None]:
    """s's k-smooth part, its coprime part p, and None if (k, s) fails
    main2's preconditions, else (lift, T = ord_p(k), T'' residue): n/s has
    the repetend of (n * lift mod p)/p, lift = k^rho0 / smooth mod p."""
    smooth, p, rho0 = _smooth_split(s, k)
    if p == 1 or math.gcd(p, k - 1) != 1:
        return smooth, p, None
    period = multiplicative_order(k, p)
    return smooth, p, (_scaled(1, k, (smooth, p, rho0)) % p, period,
                       _t_doubleprime_residue(s, k, rho0, period))


def _main2(n: int, s: int, k: int) -> Main2Report:
    """The main2 kernel for an irreducible n/s, preconditions included."""
    smooth, p, setup = _main2_setup(s, k)
    repetend, root, divisible, reason = (), None, False, None
    if setup is None and p == 1:
        reason = (f"{_decimal_text(n)}/{_decimal_text(s)} terminates in base "
                  f"{_decimal_text(k)}: no repetend")
    elif setup is None:
        reason = (f"gcd({_decimal_text(p)}, {_decimal_text(k - 1)}) = "
                  f"{_decimal_text(math.gcd(p, k - 1))} != 1")
    else:
        lift, _, residue = setup
        repetend = _repetend(n * lift % p, p, k)
        root = _trajectory(sum(repetend), k)[-1]
        divisible = n * residue % (s * (k - 1)) == 0
    return Main2Report(
        base=k, n=n, s=s, smooth_part=smooth, p_part=p,
        preconditions_ok=reason is None, repetend=repetend, repetend_root=root,
        t_doubleprime_divisible=divisible,
        passed=reason is None and root % (k - 1) == 0 and divisible, reason=reason,
    )


def verify_main2(n: int, s: int, k: int) -> Main2Report:
    """Check the repetend digit-sum divisibility for n/s in base k, and
    that (k^T - 1) * k^rho0 * n / s is a natural number divisible by k-1.
    A tuple outside main2's preconditions (see the module docstring)
    yields a non-passing report with a reason rather than an error.
    """
    _require_int(k, "base", 2)
    _require_int(n, "n", 1, PreconditionError)
    _require_int(s, "s", 2, PreconditionError)
    if math.gcd(n, s) != 1:
        raise DomainError(f"{_decimal_text(n)}/{_decimal_text(s)} is not an irreducible fraction")
    return _main2(n, s, k)


@dataclass(frozen=True)
class FuzzSummary:
    """Counts of one sweep: ``tested`` = ``passed`` + ``failed``; ``skipped``
    tuples fail main2's preconditions; ``degenerate`` tested tuples are in
    base 2, where k-1 = 1.  main1 always reports skipped = degenerate = 0."""

    tested: int
    passed: int
    failed: int
    skipped: int
    degenerate: int
    failures: tuple[dict, ...]


def _smooth_values(k: int, bound: int) -> list[int]:
    """All products of primes of k that are <= bound, ascending."""
    primes = factorize(k).primes()
    values = {1}
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for p in primes:
            w = v * p
            if w <= bound and w not in values:
                values.add(w)
                frontier.append(w)
    return sorted(values)


def _run_main1_chunk(numerators, bases, bound: int, terms_max: int):
    """Run the ``fuzz_main1`` tuples (k, r, a/b) of each numerator a.

    The proper divisors, and k^rho0 / b for each b, are found once per
    base per chunk.  A tuple's verdict depends on b only through
    n_0 = a * k^rho0 / b without its trailing base-k zeros (see
    ``_main1``), and b and b*k always share it, so the b of one (k, a)
    are grouped by that n_0 and each group runs the kernel once per r;
    every b of a failing group is listed with the group's witness.  The
    calls of one (k, a) reach the same stripped n_j again across r and
    n_0, so they share one memo of roots, dropped with that (k, a).  Each
    (k, r) keeps one memo of verdicts for the whole chunk, small because
    R_j = R_0 * (k/r)^j mod k-1: true roots give at most k-1 tuples.
    """
    tables = [(k, [(r, {}) for r in divisors(k)[1:-1]],
               [(b, _scaled(1, k, _smooth_split(b, k))) for b in _smooth_values(k, bound)])
              for k in bases if len(divisors(k)) > 2]
    failed = tested = 0
    failures = []
    for a in numerators:
        for k, proper, smooth in tables:
            groups: dict[int, list[int]] = {}  # n_0 without trailing zeros -> its b
            for b, scale in smooth:
                if math.gcd(a, b) == 1:
                    n0 = a * scale
                    while n0 % k == 0:
                        n0 //= k
                    groups.setdefault(n0, []).append(b)
            tested += len(proper) * sum(map(len, groups.values()))
            memo: dict[int, int] = {}
            for r, verdicts in proper:
                for n0, dens in groups.items():
                    witness = _main1(n0, r, k, terms_max, memo, verdicts)[2]
                    if witness is not None:
                        failed += len(dens)
                        failures += ({"base": k, "r": r, "num": a, "den": b, "witness": witness}
                                     for b in dens)
    return tested, failed, 0, 0, failures


def _main2_failures(k: int, s: int, numerators: list[int]) -> list[int] | None:
    """The n in ``numerators`` (all coprime to s) for which n/s fails main2
    in base k; None when (k, s) fails main2's preconditions.

    The remainders rem * k^i mod p of one long division have repetends
    that are rotations of each other, so they share a digit sum and a
    root.  Each T-step division therefore decides its whole remainder
    cycle: whether the root of its digit sum is divisible by k-1.  A memo
    of those verdicts by remainder, never larger than p, serves the rest
    of the cycle, and roots are memoised by digit sum.
    """
    _, p, setup = _main2_setup(s, k)
    if setup is None:
        return None
    lift, period, residue = setup
    modulus = s * (k - 1)
    verdicts: dict[int, bool] = {}
    roots: dict[int, int] = {}
    failing = []
    for n in numerators:
        rem = n * lift % p
        divisible = verdicts.get(rem)
        if divisible is None:
            total, cycle, r = 0, [], rem
            for _ in range(period):
                d, r = divmod(r * k, p)
                total += d
                cycle.append(r)
            root = roots.get(total)
            if root is None:
                root = roots[total] = _trajectory(total, k)[-1]
            divisible = root % (k - 1) == 0
            verdicts.update(dict.fromkeys(cycle, divisible))
        if not divisible or n * residue % modulus:
            failing.append(n)
    return failing


def _run_main2_chunk(denominators, bases, n_bound: int):
    tested = failed = skipped = degenerate = 0
    failures = []
    for s in denominators:
        numerators = [n for n in range(1, n_bound + 1) if math.gcd(n, s) == 1]
        for k in bases:
            failing = _main2_failures(k, s, numerators)
            if failing is None:
                skipped += len(numerators)
                continue
            tested += len(numerators)
            if k == 2:
                degenerate += len(numerators)
            failed += len(failing)
            failures += ({"base": k, "n": n, "s": s} for n in failing)
    return tested, failed, skipped, degenerate, failures


def _cpu_count() -> int:
    """The CPUs this process may run on (its affinity, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slices(items, parts: int, cost) -> list:
    """Cut ``items`` into ``parts`` contiguous slices of about equal integer
    ``cost``.  Slice i ends after the longest prefix that costs at most
    i/parts of the total, so each slice's cost is within one item's cost of
    an even share.  With unit costs slice i is
    items[i*n//parts:(i+1)*n//parts]."""
    prefix = list(accumulate(map(cost, items)))
    cuts = [0, *(bisect_right(prefix, i * prefix[-1] // parts) for i in range(1, parts)),
            len(items)]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def _send_slice(runner, part, writer) -> None:
    """A child's whole work: send (True, runner(part)) or (False, the
    exception it raised) through ``writer``."""
    try:
        outcome = True, runner(part)
    except BaseException as exc:  # the parent reads it and raises it
        outcome = False, exc
    writer.send(outcome)


def _start_slice(runner, part):
    """Start a child process that runs ``_send_slice``; return the child
    and the reading end of its one-way pipe."""
    # Imported here: a process that never sweeps in parallel should not load them.
    from multiprocessing import Pipe, Process
    reader, writer = Pipe(duplex=False)
    child = Process(target=_send_slice, args=(runner, part, writer))
    child.start()
    writer.close()  # the child holds the only writer, so its death reads as EOF
    return child, reader


def _run_chunked(runner, items, workers: int, cost=lambda item: 1) -> FuzzSummary:
    """Run contiguous slices of ``items``, cut at equal ``cost`` (see
    ``_slices``), through ``runner`` in at most ``workers`` processes, this
    one included and one per usable CPU at most, and merge the counts.
    This process runs the first slice while ``workers - 1`` children run
    the rest; a child's exception is raised here, and every child is
    joined before this returns or raises.  Failures are sorted by their
    values in field order, whatever ``workers``."""
    workers = min(workers, _cpu_count())
    if workers == 1 or len(items) < 2 * workers:
        results = [runner(items)]
    else:
        first, *rest = _slices(items, workers, cost)
        children = []
        try:
            for part in rest:
                children.append(_start_slice(runner, part))
            results = [runner(first)]
            for child, reader in children:
                try:
                    ok, result = reader.recv()
                except EOFError:  # killed, or its outcome would not pickle
                    child.join()
                    raise RuntimeError(f"a sweep process exited with code {child.exitcode} "
                                       "before sending its result") from None
                if not ok:
                    raise result
                results.append(result)
        except BaseException:
            # Their results are not wanted, and a child blocked on a full
            # pipe would otherwise never exit.
            for child, _ in children:
                child.terminate()
            raise
        finally:
            for child, reader in children:
                child.join()
                reader.close()
    tested, failed, skipped, degenerate = map(sum, zip(*(r[:4] for r in results)))
    failures = sorted((f for r in results for f in r[4]), key=lambda f: tuple(f.values()))
    return FuzzSummary(tested, tested - failed, failed, skipped, degenerate, tuple(failures))


def fuzz_main1(bases, bound: int, terms_max: int = 5, workers: int = 1) -> FuzzSummary:
    """Check main1 for every (k, r, a/b) tuple in range: k in ``bases``,
    every divisor r of k with 2 <= r < k, and every reduced a/b with
    a <= bound and k-smooth b <= bound, for j = 0..terms_max, with the
    kernel ``verify_main1`` uses.  A failure is listed by
    (base, r, num, den, witness), sorted by (base, r, num, den) whatever
    the number of workers.
    """
    bases = [_require_int(k, "base", 2) for k in bases]
    _require_int(bound, "bound", 0, PreconditionError)
    _require_int(terms_max, "terms", 1, PreconditionError)
    _require_int(workers, "workers", 1, PreconditionError)
    runner = partial(_run_main1_chunk, bases=bases, bound=bound, terms_max=terms_max)
    return _run_chunked(runner, range(1, bound + 1), workers)


def fuzz_main2(bases, n_bound: int, s_bound: int, workers: int = 1) -> FuzzSummary:
    """Check main2 for every reduced n/s with n <= n_bound and
    2 <= s <= s_bound, in each base k of ``bases``: the root of the digit
    sum of its real repetend, and T''.  A tuple that fails main2's
    preconditions is counted as skipped.  Failures are listed by
    (base, n, s) whatever the number of workers.
    """
    bases = [_require_int(k, "base", 2) for k in bases]
    _require_int(n_bound, "n_bound", 0, PreconditionError)
    _require_int(s_bound, "s_bound", 0, PreconditionError)
    _require_int(workers, "workers", 1, PreconditionError)
    runner = partial(_run_main2_chunk, bases=bases, n_bound=n_bound)
    # A denominator s costs one step per numerator in each base, plus at
    # most p <= s long-division steps per base to settle its cycles.
    return _run_chunked(runner, range(2, s_bound + 1), workers, cost=lambda s: n_bound + s)


@dataclass(frozen=True, slots=True)
class MagicDigitResult:
    candidates: tuple[int, ...]

    @property
    def ambiguous(self) -> bool:
        return len(self.candidates) > 1

    @property
    def digit(self) -> int:
        return self.candidates[0]


def solve_missing_digit(pattern: str, k: int) -> MagicDigitResult:
    """Recover the single unknown digit of a number divisible by k-1.

    The digit sum of such a number is divisible by k-1, which pins the
    placeholder down to one digit, except that 0 and k-1 are
    indistinguishable; that case is reported as ambiguous.
    """
    _require_int(k, "base", 2)
    tokens = pattern if k <= 36 else pattern.split(",")
    # Each '?' reads as 0: it adds nothing to the digit sum, and being one
    # character too it leaves every error message and position as it was.
    spelled = ("" if k <= 36 else ",").join("0" if t == "?" else t for t in tokens)
    digits = _tokenize(spelled, 0, k)
    placeholders = tokens.count("?")
    if placeholders != 1:
        raise PreconditionError(
            f"pattern must contain exactly one '?' placeholder, found {placeholders}"
        )
    residue = (-sum(digits)) % (k - 1)
    if residue == 0:
        return MagicDigitResult((0, k - 1))
    return MagicDigitResult((residue,))
