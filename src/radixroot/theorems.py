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


def _require_main1_args(q: Rational, r: int, k: int) -> int:
    """Preconditions shared by verify_main1 and verify_cor1; returns the
    integer n_0 = k^rho0 * q."""
    split = _terminating_split(q, k)
    if _require_int(r, "r", 2, PreconditionError) >= k or k % r != 0:
        raise PreconditionError(f"r must be a divisor of {_decimal_text(k)} with 2 <= r < "
                                f"{_decimal_text(k)}, got {_decimal_text(r)}")
    if q.is_zero:
        raise PreconditionError("q must be positive")
    return _scaled(q.num, k, split)


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
    n0 = _require_main1_args(q, r, k)
    _require_int(terms_max, "terms", 1, PreconditionError)
    roots, congruence_ok, witness = _main1(n0, r, k, terms_max, {}, {})
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
    root0, root1 = _main1(_require_main1_args(q, r, k), r, k, 1, {}, {})[0]
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


def _main2_setup(s: int, k: int) -> tuple[tuple[int, int, int], bool]:
    """The split (smooth, p, rho0) of s, and whether (k, s) meets main2's
    preconditions: p >= 2 and gcd(p, k-1) = 1.  n/s then has the repetend
    of rem/p, rem = _scaled(n, k, split) mod p, and T = ord_p(k)."""
    split = _smooth_split(s, k)
    p = split[1]
    return split, p != 1 and math.gcd(p, k - 1) == 1


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
    split, ok = _main2_setup(s, k)
    smooth, p, rho0 = split
    repetend, root, divisible, reason = (), None, False, None
    if p == 1:
        reason = (f"{_decimal_text(n)}/{_decimal_text(s)} terminates in base "
                  f"{_decimal_text(k)}: no repetend")
    elif not ok:
        reason = (f"gcd({_decimal_text(p)}, {_decimal_text(k - 1)}) = "
                  f"{_decimal_text(math.gcd(p, k - 1))} != 1")
    else:
        repetend = _repetend(_scaled(n, k, split) % p, p, k)
        root = _trajectory(sum(repetend), k)[-1]
        residue = _t_doubleprime_residue(s, k, rho0, len(repetend))
        divisible = n * residue % (s * (k - 1)) == 0
    return Main2Report(
        base=k, n=n, s=s, smooth_part=smooth, p_part=p,
        preconditions_ok=ok, repetend=repetend, repetend_root=root,
        t_doubleprime_divisible=divisible,
        passed=ok and root % (k - 1) == 0 and divisible, reason=reason,
    )


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


def _main1_tables(bases, bound: int) -> list:
    """For each composite base k of ``bases``: k, its proper divisors, and
    (b, k^rho0 / b) for each k-smooth b <= bound, ascending in b."""
    tables = []
    for k in (k for k in bases if len(divisors(k)) > 2):
        values = [1]  # each product of primes of k that is <= bound, once
        for p in factorize(k).primes():
            for v in values:  # this walks what it appends too: every power of p
                if v * p <= bound:
                    values.append(v * p)
        tables.append((k, divisors(k)[1:-1],
                       [(b, _scaled(1, k, _smooth_split(b, k))) for b in sorted(values)]))
    return tables


def _run_main1_chunk(cofactors, tables, bound: int, terms_max: int):
    """Run the ``fuzz_main1`` tuples (k, r, a/b) of the bases of ``tables``
    whose numerator a has k-coprime part c, for each cofactor c of the chunk.

    A tuple's verdict depends on b only through n_0 = a * k^rho0 / b
    without its trailing base-k zeros (see ``_main1``).  b and each step
    k/r are k-smooth, so the k-coprime part of n_0 and of every n_j is c:
    only numerators a = c * s, with s k-smooth, share an n_0 or a root.
    In each base k coprime to c, the pairs (a, b) with b k-smooth and
    gcd(s, b) = 1 are grouped by n_0 and each group runs the kernel once
    per r; every (a, b) of a failing group is listed with the group's
    witness.  The calls of one (k, c) share one memo of roots, dropped
    with that (k, c).  Each (k, r) keeps one memo of verdicts for the
    whole chunk, small because R_j = R_0 * (k/r)^j mod k-1: true roots
    give at most k-1 tuples.
    """
    tables = [(k, [(r, {}) for r in proper], smooth) for k, proper, smooth in tables]
    failed = tested = 0
    failures = []
    for c in cofactors:
        for k, proper, smooth in tables:
            if math.gcd(c, k) != 1:
                continue
            groups: dict[int, list[tuple[int, int]]] = {}  # stripped n_0 -> its (a, b)
            for s, _ in smooth:
                if c * s > bound:
                    break
                for b, scale in smooth:
                    if math.gcd(s, b) == 1:
                        n0 = s * scale  # c is a unit mod k: it adds no trailing zero
                        while n0 % k == 0:
                            n0 //= k
                        groups.setdefault(c * n0, []).append((c * s, b))
            tested += len(proper) * sum(map(len, groups.values()))
            memo: dict[int, int] = {}
            for r, verdicts in proper:
                for n0, pairs in groups.items():
                    witness = _main1(n0, r, k, terms_max, memo, verdicts)[2]
                    if witness is not None:
                        failed += len(pairs)
                        failures += ({"base": k, "r": r, "num": a, "den": b, "witness": witness}
                                     for a, b in pairs)
    return tested, failed, 0, 0, failures


def _main2_cycles(k: int, p: int, period: int) -> bytearray | None:
    """Decide every remainder cycle of the units mod p in base k: None when
    the root of each cycle's digit sum is divisible by k-1, else a
    bytearray(p) that is 2 at each remainder of a failing cycle.

    The remainders rem * k^i mod p of one long division have repetends
    that are rotations of each other, so they share a digit sum and a
    root, and one T-step division of real digits decides each cycle:
    phi(p) steps in all.  Roots are memoised by digit sum.  One bytearray
    marks the remainders divided (1) and those of failing cycles (2), and
    it is kept only when a cycle fails: at most p bytes per (k, p).
    """
    table = bytearray(p)
    roots: dict[int, int] = {}
    rem = 1
    while rem != -1:
        if math.gcd(rem, p) == 1:
            total, r = 0, rem
            for _ in range(period):
                d, r = divmod(r * k, p)
                total += d
                table[r] = 1
            root = roots.get(total)
            if root is None:
                root = roots[total] = _trajectory(total, k)[-1]
            if root % (k - 1):
                for _ in range(period):  # r is back at rem
                    table[r] = 2
                    r = r * k % p
        rem = table.find(0, rem + 1)
    return table if 2 in table else None


def _run_main2_chunk(denominators, bases, n_bound: int):
    """Run the ``fuzz_main2`` tuples (k, n, s) of each denominator s.

    n/s has the repetend of rem/p, rem = n * lift mod p, a unit, with
    lift = k^rho0 / smooth mod p, so its verdict is its remainder cycle's
    (see ``_main2_cycles``).  T = ord_p(k) and every cycle verdict depend
    only on (k, p), and ``cycles`` keeps both by (k, p) for every
    s = smooth * p of the chunk.  A (k, s) whose cycles all pass and whose
    T'' residue is 0 fails no numerator, so none is looked at; otherwise n
    fails on its cycle or on n * residue != 0 mod s*(k-1).
    """
    tested = failed = skipped = degenerate = 0
    failures = []
    cycles = {}  # (k, p) -> (T, _main2_cycles(k, p, T)), for the whole chunk
    for s in denominators:
        numerators = [n for n in range(1, n_bound + 1) if math.gcd(n, s) == 1]
        for k in bases:
            split, ok = _main2_setup(s, k)
            if not ok:
                skipped += len(numerators)
                continue
            tested += len(numerators)
            if k == 2:
                degenerate += len(numerators)
            _, p, rho0 = split
            if (k, p) not in cycles:
                period = multiplicative_order(k, p)
                cycles[k, p] = period, _main2_cycles(k, p, period)
            period, table = cycles[k, p]
            residue = _t_doubleprime_residue(s, k, rho0, period)
            if table is None and not residue:
                continue
            lift, modulus = _scaled(1, k, split) % p, s * (k - 1)
            failing = [n for n in numerators
                       if n * residue % modulus or table is not None and table[n * lift % p] == 2]
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
    items[i*n//parts:(i+1)*n//parts].  One part is ``items`` itself, and
    ``cost`` is then never called."""
    if parts == 1:
        return [items]
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
    Empty slices are dropped; this process runs the first slice left while
    one child each runs the rest, so one slice (one worker, fewer than
    2 * workers items, or all the cost in one slice) starts no child.  A
    child's exception is raised here, and every child is joined before
    this returns or raises.  Failures are sorted by their values in field
    order, whatever ``workers``."""
    workers = min(workers, _cpu_count())
    if len(items) < 2 * workers:
        workers = 1
    first, *rest = [part for part in _slices(items, workers, cost) if part] or [items]
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
    kernel ``verify_main1`` uses.  The work items are the cofactors
    c = 1..bound: c owns, in each base coprime to it, the numerators whose
    k-coprime part is c (see ``_run_main1_chunk``).  A failure is listed
    by (base, r, num, den, witness), sorted by (base, r, num, den)
    whatever the number of workers.
    """
    bases = [_require_int(k, "base", 2) for k in bases]
    _require_int(bound, "bound", 0, PreconditionError)
    _require_int(terms_max, "terms", 1, PreconditionError)
    _require_int(workers, "workers", 1, PreconditionError)
    tables = _main1_tables(bases, bound)  # built once; forked children inherit it
    runner = partial(_run_main1_chunk, tables=tables, bound=bound, terms_max=terms_max)
    # A cofactor c costs, in each composite base k coprime to it, one pass
    # over the k-smooth b and one over its numerators c * s <= bound.
    return _run_chunked(runner, range(1, bound + 1), workers, cost=lambda c: sum(
        len(smooth) + bisect_right(smooth, bound // c, key=lambda pair: pair[0])
        for k, _, smooth in tables if math.gcd(c, k) == 1))


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
    # A denominator s costs its list of numerators and one setup per base,
    # plus phi(p) long-division steps in each base where its coprime part p
    # is new to the slice, which is mostly where s = p.  Those steps
    # dominate and grow with s.  Weighting s by 4 evens the two slices at
    # README scale (n_bound = s_bound = 100) and leaves them within about
    # 20% at n_bound = 300, s_bound = 1000, where a later slice also
    # redivides the small p of its s = smooth * p, which no weight per s
    # can see.
    return _run_chunked(runner, range(2, s_bound + 1), workers, cost=lambda s: n_bound + 4 * s)


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
