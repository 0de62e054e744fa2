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

import _thread
import math
import os
from functools import cache, partial
from itertools import islice, repeat

from .arith import Rational, _decimal_text, _divisors, _factor, _Record, _require_int
from .digroot import _digit_sum, _trajectory
from .errors import DomainError, PreconditionError
from .radix import _order, _repetend, _scaled, _smooth_split, _terminating_split, _tokenize


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
        label0 = math.gcd(root0, modulus)
        congruence_ok, witness, power = True, None, 1
        for j in range(1, terms_max + 1):
            root = roots[j]
            power = power * r % modulus  # r^j mod k-1
            congruent = (power * root - root0) % modulus == 0
            congruence_ok = congruence_ok and congruent
            if witness is None and not (congruent and math.gcd(root, modulus) == label0):
                witness = j
        verdict = verdicts[roots] = congruence_ok, witness
    return (roots, *verdict)


class Main1Term(_Record):
    __slots__ = ("j", "value", "root", "orbit_label")


class Main1Report(_Record):
    __slots__ = ("base", "q", "r", "terms", "orbit_delta", "congruence_ok", "passed", "witness")


def verify_main1(q: Rational, r: int, k: int, terms_max: int) -> Main1Report:
    """Check main1 for q, q/r, ..., q/r^terms_max: every root R_j lies in
    the orbit of R_0 mod k-1, and r^j * R_j = R_0 mod k-1."""
    n0 = _require_main1_args(q, r, k)
    _require_int(terms_max, "terms", 1, PreconditionError)
    roots, congruence_ok, witness = _main1(n0, r, k, terms_max, {}, {})
    terms = tuple(
        Main1Term(j, Rational(q.num, q.den * r**j), root, math.gcd(root, k - 1))
        for j, root in enumerate(roots)
    )
    return Main1Report(k, q, r, terms, terms[0].orbit_label, congruence_ok, witness is None,
                       witness)


def verify_cor1(q: Rational, r: int, k: int) -> bool:
    """If the root of q is divisible by k-1, so is the root of q/r."""
    root0, root1 = _main1(_require_main1_args(q, r, k), r, k, 1, {}, {})[0]
    if root0 % (k - 1) != 0:
        raise PreconditionError(
            f"digital root of {q} is not divisible by {_decimal_text(k - 1)}")
    return root1 % (k - 1) == 0


class Main2Report(_Record):
    __slots__ = ("base", "n", "s", "smooth_part", "p_part", "preconditions_ok", "repetend",
                 "repetend_root", "t_doubleprime_divisible", "passed", "reason")


def _t_doubleprime_residue(s: int, k: int, power: int, period: int) -> int:
    """power * (k^period - 1) mod s*(k-1), for power = k^rho0, without the
    k^period bignum.

    n * k^rho0 * (k^period - 1) / s is a natural number divisible by k-1
    exactly when n times this residue is 0 mod s*(k-1).
    """
    modulus = s * (k - 1)
    return power * (pow(k, period, modulus) - 1) % modulus


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
    # n/s has the repetend of rem/p, rem = _scaled(n, k, split) mod p.
    smooth, p, rho0 = split = _smooth_split(s, k)
    ok = p != 1 and math.gcd(p, k - 1) == 1
    repetend, root, divisible, reason = (), None, False, None
    if p == 1:
        reason = (f"{_decimal_text(n)}/{_decimal_text(s)} terminates in base "
                  f"{_decimal_text(k)}: no repetend")
    elif not ok:
        reason = (f"gcd({_decimal_text(p)}, {_decimal_text(k - 1)}) = "
                  f"{_decimal_text(math.gcd(p, k - 1))} != 1")
    else:
        repetend = _repetend(_scaled(n, k, split) % p, p, k, _order(k, p))
        root = _trajectory(sum(repetend), k)[-1]
        residue = _t_doubleprime_residue(s, k, k**rho0, len(repetend))
        divisible = n * residue % (s * (k - 1)) == 0
    return Main2Report(k, n, s, smooth, p, ok, repetend, root, divisible,
                       ok and root % (k - 1) == 0 and divisible, reason)


class FuzzSummary(_Record):
    """Counts of one sweep: ``tested`` = ``passed`` + ``failed``; ``skipped``
    tuples fail main2's preconditions; ``degenerate`` tested tuples are in
    base 2, where k-1 = 1.  main1 always reports skipped = degenerate = 0."""

    __slots__ = ("tested", "passed", "failed", "skipped", "degenerate", "failures")


def _smooth_tables(bases, bound: int) -> list:
    """For each base k of ``bases``: k and (m, k^rho0 / m) for each k-smooth
    m <= bound, ascending in m, with k^rho0 the least power of k that m
    divides."""
    tables = []
    for k in bases:
        values = [1]  # each product of primes of k that is <= bound, once
        # k's primes <= bound are those of gcd(k, min(bound, k)!): a huge k is never factored.
        for p, _ in _factor(math.gcd(k, math.factorial(min(bound, k)))):
            for v in values:  # this walks what it appends too: every power of p
                if v * p <= bound:
                    values.append(v * p)
        tables.append((k, [(m, _scaled(1, k, _smooth_split(m, k))) for m in sorted(values)]))
    return tables


def _run_main1_chunk(cofactors, tables, bound: int, terms_max: int):
    """Run the ``fuzz_main1`` tuples (k, r, a/b) of the bases of ``tables``,
    every proper divisor r of k, whose numerator a has k-coprime part c, for
    each cofactor c of the chunk.

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
    tables = [(k, [(r, {}) for r in _divisors(k)[1:-1]], smooth) for k, smooth in tables]
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


def _run_main2_chunk(coprimes, tables, n_bound: int, s_bound: int):
    """Run the ``fuzz_main2`` tuples (k, n, s) of the bases of ``tables``
    whose denominator s has k-coprime part p, for each p of the chunk.

    In each base k coprime to p, those s are m * p <= s_bound with m
    k-smooth, and k^rho0 = m * scale for m's entry (m, scale) of the table.
    p = 1 owns only terminating s, which are skipped.  n/s has the
    repetend of rem/p, rem = n * scale mod p, a unit, so its verdict is its
    remainder cycle's (see ``_main2_cycles``).  T = ord_p(k) and every
    cycle verdict depend only on (k, p): they are found once, for s = p,
    and dropped with that (k, p).  The numerators of each s are counted
    once per chunk.  A (k, s) whose cycles all pass and whose T'' residue
    is 0 fails no numerator, so none is listed; otherwise n fails on its
    cycle or on n * residue != 0 mod s*(k-1).
    """
    tested = failed = skipped = degenerate = 0
    failures = []
    coprime_count = cache(lambda s: list(map(math.gcd, range(1, n_bound + 1), repeat(s))).count(1))
    for p in coprimes:
        for k, smooth in tables:
            if math.gcd(p, k) != 1:
                continue
            ok = p != 1 and math.gcd(p, k - 1) == 1
            if ok:
                period = _order(k, p)
                table = _main2_cycles(k, p, period)
            for m, scale in islice(smooth, p == 1, None):  # p = 1 owns s = m >= 2 only
                s = m * p
                if s > s_bound:
                    break
                count = coprime_count(s)
                if not ok:
                    skipped += count
                    continue
                tested += count
                if k == 2:
                    degenerate += count
                residue = _t_doubleprime_residue(s, k, m * scale, period)
                if table is None and not residue:
                    continue
                lift, modulus = scale % p, s * (k - 1)
                failing = [n for n in range(1, n_bound + 1) if math.gcd(n, s) == 1 and (
                    n * residue % modulus or table is not None and table[n * lift % p] == 2)]
                failed += len(failing)
                failures += ({"base": k, "n": n, "s": s} for n in failing)
    return tested, failed, skipped, degenerate, failures


def _cpu_count() -> int:
    """The CPUs this process may run on (its affinity, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _deal(items, parts: int) -> list:
    """Deal ``items`` to ``parts`` slices in zigzag rounds (0, 1, ..., parts-1,
    parts-1, ..., 0), each round starting one slice further on.  Every slice
    gets an early and a late item per round, so a cost that rises or falls
    along the items evens out; the shift keeps a slice from owning fixed
    residues.  Slices keep the items' order and differ in length by at most
    one.  One part is ``items`` itself."""
    if parts == 1:
        return [items]
    slices = [[] for _ in range(parts)]
    for j, item in enumerate(items):
        i = j % (2 * parts)
        slices[(min(i, 2 * parts - 1 - i) + j // (2 * parts)) % parts].append(item)
    return slices


def _serve(conn, parent_end) -> None:
    """A worker's loop: for each (runner, part) read from ``conn``, send
    back (True, runner(part)) or (False, the exception it raised).  It
    returns when the pipe reads EOF: once the parent closes its end or
    dies."""
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt and ends it
    parent_end.close()  # a copy kept here would hide the parent's death
    while True:
        try:
            runner, part = conn.recv()
        except EOFError:
            return
        try:
            outcome = True, runner(part)
        except BaseException as exc:  # the parent reads it and raises it
            outcome = False, exc
        conn.send(outcome)


class _Worker:
    """A daemon child process that runs ``_serve`` on one duplex pipe."""

    def __init__(self):
        # Imported here: a process that never sweeps in parallel should not load them.
        from multiprocessing import Pipe, Process
        self.conn, child_end = Pipe()
        self.process = Process(target=_serve, args=(child_end, self.conn), daemon=True)
        self.process.start()
        child_end.close()  # the worker holds the only copy, so its death reads as EOF

    def result(self):
        """The (ok, value) the worker sent for its slice."""
        try:
            return self.conn.recv()
        except EOFError:  # killed, or its outcome would not pickle
            self.process.join()
            raise RuntimeError(f"a sweep process exited with code {self.process.exitcode} "
                               "before sending its result") from None

    def end(self) -> None:
        self.process.terminate()
        self.process.join()
        self.conn.close()


# The workers kept between pooled sweeps; worker i runs slice i + 1.  A
# sweep holds the lock throughout, so no two share a pipe and no worker
# forked for one inherits another's new pipe end and hides its death.
_workers: list[_Worker] = []
_workers_lock = _thread.allocate_lock()


def _end_workers(kept: int = 0) -> None:
    """End every kept worker past the first ``kept``: the next pooled sweep
    forks fresh ones.  It takes no lock: it runs under ``_workers_lock``,
    or where no sweep runs."""
    for worker in _workers[kept:]:
        worker.end()
    del _workers[kept:]


def _forget_workers() -> None:
    """In a forked child: the parent's workers and its lock are not its own."""
    global _workers_lock
    _workers_lock = _thread.allocate_lock()
    for worker in _workers:
        worker.conn.close()
    _workers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _start_slice(runner, part, i: int) -> _Worker:
    """Send (runner, part) to kept worker i, forked when there is none and
    replaced when it died since the last sweep; return that worker."""
    from multiprocessing.connection import wait
    if i == len(_workers):
        _workers.append(_Worker())
    # The sentinel reads EOF once a dying worker closed it; is_alive() may not yet.
    elif wait([_workers[i].process.sentinel], 0):
        _workers[i].end()
        _workers[i] = _Worker()
    _workers[i].conn.send((runner, part))
    return _workers[i]


def _run_chunked(runner, items, workers: int) -> FuzzSummary:
    """Run slices of ``items``, dealt by ``_deal``, through ``runner`` in at
    most ``workers`` processes, this one included and one per usable CPU at
    most, and merge the counts.  This process runs the first slice while
    one pooled worker each runs the rest.  Fewer than 2 * workers items
    make one slice, which uses no worker; otherwise no slice is empty.

    Workers are daemon child processes kept between sweeps: worker i runs
    slice i + 1 of every pooled sweep, and is forked by the first sweep
    that needs it.  Pooled sweeps run one at a time, so this process never
    holds more than one worker per usable CPU but one; a serial sweep
    waits for none.  ``runner`` and each slice reach a worker pickled, so
    ``runner`` must pickle by reference to module-level code.  A worker
    runs the library as it was when it was forked: code patched into this
    process later does not reach it until ``_end_workers`` makes the next
    sweep fork anew.  Workers ignore SIGINT, exit when this process does,
    and exit on EOF if it dies.

    Any exception, a worker's included, ends every kept worker before it
    is raised here.  Failures are sorted by their values in field order,
    whatever ``workers``."""
    cpus = _cpu_count()
    workers = min(workers, cpus)
    if len(items) < 2 * workers:
        workers = 1
    first, *rest = _deal(items, workers)
    if not rest:
        results = [runner(first)]
    else:
        with _workers_lock:
            try:
                started = [_start_slice(runner, part, i) for i, part in enumerate(rest)]
                results = [runner(first)]
                for worker in started:
                    ok, result = worker.result()
                    if not ok:
                        raise result
                    results.append(result)
            except BaseException:
                # Their results are not wanted, a worker blocked on a full pipe would
                # never finish, and a failed one is in an unknown state.
                _end_workers()
                raise
            _end_workers(cpus - 1)
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
    # Built once; every slice reads them, and the runner takes them to the workers.
    tables = _smooth_tables([k for k in bases if len(_divisors(k)) > 2], bound)
    runner = partial(_run_main1_chunk, tables=tables, bound=bound, terms_max=terms_max)
    # With no composite base there is no work, and no cofactor to deal to a worker.
    return _run_chunked(runner, range(1, bound + 1 if tables else 1), workers)


def fuzz_main2(bases, n_bound: int, s_bound: int, workers: int = 1) -> FuzzSummary:
    """Check main2 for every reduced n/s with n <= n_bound and
    2 <= s <= s_bound, in each base k of ``bases``: the root of the digit
    sum of its real repetend, and T''.  A tuple that fails main2's
    preconditions is counted as skipped.  The work items are the coprime
    parts p = 1..s_bound: p owns, in each base coprime to it, the
    denominators whose k-coprime part is p (see ``_run_main2_chunk``).
    Failures are listed by (base, n, s) whatever the number of workers.
    """
    bases = [_require_int(k, "base", 2) for k in bases]
    _require_int(n_bound, "n_bound", 0, PreconditionError)
    _require_int(s_bound, "s_bound", 0, PreconditionError)
    _require_int(workers, "workers", 1, PreconditionError)
    tables = _smooth_tables(bases, s_bound)  # as in fuzz_main1
    runner = partial(_run_main2_chunk, tables=tables, n_bound=n_bound, s_bound=s_bound)
    return _run_chunked(runner, range(1, s_bound + 1 if tables else 1), workers)


class MagicDigitResult(_Record):
    __slots__ = ("candidates",)

    @property
    def ambiguous(self) -> bool:
        return len(self.candidates) > 1


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
