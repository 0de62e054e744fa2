"""The three workloads: input generators, timed rounds and correctness gates.

Every workload runs in rounds.  A round is a fixed amount of work whose
inputs come from (seed, round index) only, so two runs of one commit do
the same rounds and a traced round is comparable with an untraced one.
Checks run between timed calls and never stop a run: each mismatch is
counted in ``Gate.failed``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

from . import oracles

clock = time.perf_counter

# --- sweep_par ---------------------------------------------------------------

SWEEP_BASES = list(range(2, 17))
MAIN1_BOUND, MAIN1_TERMS = 120, 5
MAIN2_N_BOUND, MAIN2_S_BOUND = 100, 100
# Golden summaries of the two whole-range sweeps (README / acceptance scale).
GOLDEN_MAIN1 = dict(tested=15970, failed=0, degenerate=0, skipped=0)
GOLDEN_MAIN2 = dict(tested=58147, failed=0, degenerate=5687, skipped=31658)
# Disjoint from SWEEP_BASES.  Both are products of two primes, so either
# warm-up sweep costs the same and the seed does not move setup_s.
WARMUP_BASES = (21, 22)

# --- queries -----------------------------------------------------------------

QUERY_BASES = list(range(2, 17)) + [20, 36, 40, 60]
COMPOSITE_BASES = [k for k in QUERY_BASES if any(k % d == 0 for d in range(2, k))]
MAX_DEN = 5000
WARMUP_DEN = (5001, 6000)  # warm-up denominators lie above every timed one
QUERY_ROUND = 2000
# Every CLI subcommand gets the same share, and bad inputs 5% (7 / 140).  The
# mix is uniform by design: no measured usage exists to weight it by.
QUERY_MIX = (
    ("classify", 19), ("repr", 19), ("convert", 19), ("digroot", 19), ("verify", 19),
    ("orbits", 19), ("magic", 19), ("bad", 7),
)
CLI_SAMPLE = ("classify", "repr", "convert", "digroot", "main1", "main2", "cor1", "lemma31",
              "orbits", "magic", "bad", "bad")

# --- big_inputs --------------------------------------------------------------

# Level i of the long-repetend jobs runs in REP_BASES[i % 4], so the longest
# period (about 65536, as for 1/65537) runs in base 10.
REP_BASES = (16, 2, 40, 10)
REP_LEVELS = tuple(round(1000 * 65.536 ** (i / 7)) for i in range(8))
CLS_PER_REP = 5  # classify jobs after each repetend job
CLS_LEVELS = tuple(10 ** (9 + 4 * j / 39) for j in range(8 * CLS_PER_REP))
BAND = 1.01  # each job's period or denominator lies within [level, 1.01 * level]
JOB_CAP_S = 20.0  # hang guard; the slowest job today takes about 4.5 s


@dataclass
class Gate:
    """Counts attempted and failed operations; keeps the first messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            if len(self.messages) < 20:
                self.messages.append(what)


def log_uniform_int(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values) -> tuple[float, float]:
    """Lower and upper quartile; a single value is both.

    The sweep and query metrics take the slow-side quartile over a run's
    rounds: the lower one of a rate, the upper one of a time.  On a shared
    2-core host, six 35 s queries runs spread (inter-quartile range over
    median) by 0.06 in rate and 0.04 in round latency with it, against
    0.10 and 0.14 with the median over rounds.
    """
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# =============================================================================
# sweep_par
# =============================================================================


def check_sweep(gate: Gate, label: str, summary, golden: dict) -> None:
    """A summary that differs from its golden counts in any field, a
    reported violation included, fails every decided tuple of the call:
    the fuzzers return counts, not per-tuple verdicts."""
    decided = summary.tested + summary.skipped
    got = dict(tested=summary.tested, failed=summary.failed, degenerate=summary.degenerate,
               skipped=summary.skipped)
    if got != golden:
        gate.record(False, f"{label}: summary {got} != golden {golden}", decided)
        return
    gate.record(True, label, decided)


def sweep_warmup_code(seed: int) -> str:
    k = random.Random(f"sweep-warmup:{seed}").choice(WARMUP_BASES)
    return f"radixroot.fuzz_main1([{k}], 12, 2)"


def sweep_warmup(rr, seed: int) -> None:
    k = random.Random(f"sweep-warmup:{seed}").choice(WARMUP_BASES)
    rr.fuzz_main1([k], 12, 2)
    rr.fuzz_main2([k], 12, 12)


def sweep_round(rr, workers: int, gate: Gate) -> dict:
    cpu0 = children_cpu_s()
    t0 = clock()
    s1 = rr.fuzz_main1(SWEEP_BASES, MAIN1_BOUND, MAIN1_TERMS, workers=workers)
    t1 = clock()
    s2 = rr.fuzz_main2(SWEEP_BASES, MAIN2_N_BOUND, MAIN2_S_BOUND, workers=workers)
    t2 = clock()
    cpu = children_cpu_s() - cpu0
    check_sweep(gate, "main1", s1, GOLDEN_MAIN1)
    check_sweep(gate, "main2", s2, GOLDEN_MAIN2)
    return dict(busy_s=t2 - t0, main1_s=t1 - t0, main2_s=t2 - t1, main1_tuples=s1.tested,
                main2_tuples=s2.tested + s2.skipped, main2_tested=s2.tested, child_cpu_s=cpu,
                workers=workers)


def sweep_metrics(rounds: list[dict]) -> tuple[dict, list[tuple]]:
    """End-to-end metrics plus the named lines printed for this workload."""
    main1 = quartiles([r["main1_tuples"] / r["main1_s"] for r in rounds])[0]
    main2 = quartiles([r["main2_tuples"] / r["main2_s"] for r in rounds])[0]
    main2_ms = quartiles([r["main2_s"] for r in rounds])[1] * 1000
    n = len(rounds)
    metrics = {"throughput_per_s": main1, "latency_ms": main2_ms}
    named = [("main1_tuples_per_s", main1, "1/s", f"lower quartile of {n} rounds"),
             ("main2_tuples_per_s", main2, "1/s", f"lower quartile of {n} rounds"),
             ("main2_sweep_ms", main2_ms, "ms", f"upper quartile of {n} rounds")]
    return metrics, named


# =============================================================================
# queries
# =============================================================================


@dataclass(frozen=True)
class Request:
    op: str
    args: tuple
    expected: tuple  # ("ok", value) or ("err", error class name)
    argv: tuple      # the same request as CLI arguments (without --json)


# One function per request kind, each returning a plain comparable value.


def op_classify(rr, a, b, k):
    c = rr.classify(rr.Rational(a, b), k)
    return c.kind.value, c.rho0, c.period


def op_repr(rr, a, b, k, infinite):
    q = rr.Rational(a, b)
    if infinite or not rr.classify(q, k).is_terminating:
        return rr.format_repr(rr.to_repeating(q, k))
    return rr.format_repr(rr.to_finite(q, k))


def op_convert(rr, text, k2):
    return rr.format_repr(rr.convert(rr.parse(text), k2))


def op_digroot(rr, n, k):
    res = rr.digital_root(n, k)
    return res.root, res.persistence, res.trajectory


def op_tf_digroot(rr, a, b, k):
    res = rr.tf_digital_root(rr.Rational(a, b), k)
    return res.root, res.persistence, res.trajectory


def op_main1(rr, a, b, r, k, terms):
    rep = rr.verify_main1(rr.Rational(a, b), r, k, terms)
    return tuple(t.root for t in rep.terms), rep.congruence_ok, rep.witness, rep.passed


def op_main2(rr, n, s, k):
    rep = rr.verify_main2(n, s, k)
    return rep.preconditions_ok, rep.repetend, rep.passed


def op_cor1(rr, a, b, r, k):
    return rr.verify_cor1(rr.Rational(a, b), r, k)


def op_lemma31(rr, a, b, k):
    return rr.verify_lemma_dr(rr.Rational(a, b), k)


def op_orbits(rr, n):
    return dict(sorted(rr.orbit_partition(n).classes.items()))


def op_magic(rr, pattern, k):
    return rr.solve_missing_digit(pattern, k).candidates


OPS = {"classify": op_classify, "repr": op_repr, "convert": op_convert, "digroot": op_digroot,
       "tf_digroot": op_tf_digroot, "main1": op_main1, "main2": op_main2, "cor1": op_cor1,
       "lemma31": op_lemma31, "orbits": op_orbits, "magic": op_magic}


def run_request(rr, req: Request):
    """Call once; returns (seconds, outcome) with outcome shaped like
    ``Request.expected``.  Named errors are expected outcomes; any other
    exception is reported as ("exc", repr)."""
    named = (rr.ParseError, rr.DomainError, rr.PreconditionError)
    op = OPS[req.op]
    t0 = clock()
    try:
        outcome = ("ok", op(rr, *req.args))
    except named as exc:
        outcome = ("err", type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 - any other error is a failed request
        outcome = ("exc", repr(exc))
    return clock() - t0, outcome


class QueryGen:
    """Seeded request stream; every expected answer comes from oracles."""

    def __init__(self, rng: random.Random, den_range=(1, MAX_DEN)):
        self.rng = rng
        self.den_range = den_range

    def den(self) -> int:
        lo, hi = self.den_range
        if lo > 1:
            return self.rng.randint(lo, hi)
        return log_uniform_int(self.rng, 1, hi + 1)

    def smooth_den(self, k: int) -> int:
        """A random product of primes of k, at most den()."""
        primes = sorted(oracles.prime_factors(k))
        target = self.den()
        s = 1
        while s * primes[0] <= target:
            p = self.rng.choice(primes)
            if s * p > target:
                break
            s *= p
        return s

    def request(self, kind: str) -> Request:
        rng = self.rng
        if kind == "verify":
            kind = rng.choice(("main1", "main2", "cor1", "lemma31"))
        if kind == "digroot":
            kind = rng.choice(("digroot", "tf_digroot"))
        return getattr(self, "_" + kind)()

    def stream(self, n: int) -> list[Request]:
        kinds = [k for k, _ in QUERY_MIX]
        weights = [w for _, w in QUERY_MIX]
        return [self.request(kind) for kind in self.rng.choices(kinds, weights, k=n)]

    def _classify(self):
        b = self.den()
        a = self.rng.randrange(0, 4 * b + 1)
        k = self.rng.choice(QUERY_BASES)
        q = Fraction(a, b)
        rho0, p = oracles.smooth_split(q.denominator, k)
        if p == 1:
            expected = ("terminating", rho0, 0)
        else:
            expected = ("repeating", rho0, len(oracles.long_division(q, k)[2]))
        return Request("classify", (a, b, k), ("ok", expected),
                       ("classify", f"{a}/{b}", "--base", str(k)))

    def _repr(self):
        b = self.den()
        a = self.rng.randrange(1, 4 * b + 1)
        k = self.rng.choice(QUERY_BASES)
        infinite = self.rng.random() < 0.1
        q = Fraction(a, b)
        terminating = oracles.smooth_split(q.denominator, k)[1] == 1
        parts = oracles.alternate_form(q, k) if infinite and terminating else oracles.long_division(q, k)
        argv = ("repr", f"{a}/{b}", "--base", str(k)) + (("--infinite",) if infinite else ())
        return Request("repr", (a, b, k, infinite), ("ok", oracles.render(parts, k)), argv)

    def _convert(self):
        b = self.den()
        q = Fraction(self.rng.randrange(0, 4 * b + 1), b)
        k1, k2 = self.rng.choice(QUERY_BASES), self.rng.choice(QUERY_BASES)
        text = oracles.render(oracles.long_division(q, k1), k1)
        expected = oracles.render(oracles.long_division(q, k2), k2)
        return Request("convert", (text, k2), ("ok", expected), ("convert", text, "--to", str(k2)))

    def _digroot(self):
        n = log_uniform_int(self.rng, 1, 10**12)
        k = self.rng.choice(QUERY_BASES)
        return Request("digroot", (n, k), ("ok", oracles.digital_root(n, k)),
                       ("digroot", str(n), "--base", str(k)))

    def _terminating(self, k: int) -> Fraction:
        s = self.smooth_den(k)
        return Fraction(self.rng.randrange(1, 4 * s + 1), s)

    def _tf_digroot(self):
        k = self.rng.choice(QUERY_BASES)
        q = self._terminating(k)
        expected = oracles.digital_root(oracles.scaled_terminating(q, k), k)
        return Request("tf_digroot", (q.numerator, q.denominator, k), ("ok", expected),
                       ("digroot", str(q), "--base", str(k)))

    def _main1(self):
        k = self.rng.choice(COMPOSITE_BASES)
        r = self.rng.choice([d for d in range(2, k) if k % d == 0])
        q = self._terminating(k)
        terms = self.rng.randint(1, 6)
        roots, congruence_ok, witness = oracles.main1_expected(q, r, k, terms)
        expected = (roots, congruence_ok, witness, witness is None)
        return Request("main1", (q.numerator, q.denominator, r, k, terms), ("ok", expected),
                       ("verify", "main1", "--q", str(q), "--r", str(r), "--base", str(k),
                        "--terms", str(terms)))

    def _main2(self):
        k = self.rng.choice(QUERY_BASES)
        s = max(2, self.den())
        n = self.rng.randrange(1, 4 * s + 1)
        while math.gcd(n, s) != 1:
            n = self.rng.randrange(1, 4 * s + 1)
        return Request("main2", (n, s, k), ("ok", oracles.main2_expected(n, s, k)),
                       ("verify", "main2", "--n", str(n), "--s", str(s), "--base", str(k)))

    def _cor1(self):
        # (k-1)*t / k^e has a digital root divisible by k-1, as cor1 requires.
        k = self.rng.choice(COMPOSITE_BASES)
        r = self.rng.choice([d for d in range(2, k) if k % d == 0])
        q = Fraction((k - 1) * self.rng.randint(1, 10**4), k ** self.rng.randint(0, 3))
        root = oracles.digital_root(oracles.scaled_terminating(q / r, k), k)[0]
        return Request("cor1", (q.numerator, q.denominator, r, k), ("ok", root % (k - 1) == 0),
                       ("verify", "cor1", "--q", str(q), "--r", str(r), "--base", str(k)))

    def _lemma31(self):
        k = self.rng.choice(QUERY_BASES)
        q = self._terminating(k)
        m = oracles.scaled_terminating(q, k)
        holds = (oracles.digit_sum(m, k) - oracles.digital_root(m, k)[0]) % (k - 1) == 0
        return Request("lemma31", (q.numerator, q.denominator, k), ("ok", holds),
                       ("verify", "lemma31", "--q", str(q), "--base", str(k)))

    def _orbits(self):
        n = log_uniform_int(self.rng, 2, 513)
        return Request("orbits", (n,), ("ok", oracles.gcd_classes(n)),
                       ("orbits", "--modulus", str(n)))

    def _magic(self):
        rng = self.rng
        k = rng.choice(QUERY_BASES)
        digits = [rng.randrange(1, k)] + [rng.randrange(k) for _ in range(rng.randint(1, 9))]
        hole = rng.randrange(len(digits))
        known = sum(digits) - digits[hole]
        if k <= 36:
            pattern = "".join("?" if i == hole else oracles.ALPHABET[d] for i, d in enumerate(digits))
        else:
            pattern = ",".join("?" if i == hole else str(d) for i, d in enumerate(digits))
        return Request("magic", (pattern, k), ("ok", oracles.missing_digit_candidates(known, k)),
                       ("magic", pattern, "--base", str(k)))

    def _bad(self):
        """A request that must raise a named error (CLI exit code 2)."""
        rng = self.rng
        k = rng.choice(COMPOSITE_BASES)
        b = self.den()
        case = rng.randrange(10)
        if case == 0:  # unterminated bracket literal
            text = oracles.render(oracles.long_division(Fraction(rng.randrange(1, 4 * b + 1), b), k), k)
            return Request("convert", (text[:-3], 10), ("err", "ParseError"), ("convert", text[:-3], "--to", "10"))
        if case == 1:  # digit not below the base
            text = f"[{oracles.ALPHABET[k]}1]_{k}" if k < 36 else f"[{k},1]_{k}"
            return Request("convert", (text, 10), ("err", "ParseError"), ("convert", text, "--to", "10"))
        if case == 2:  # finite fraction spelled with a trailing zero
            text = f"[1.{oracles.ALPHABET[rng.randrange(1, min(k, 36))]}0]_{min(k, 36)}"
            return Request("convert", (text, 10), ("err", "ParseError"), ("convert", text, "--to", "10"))
        if case == 3:
            return Request("classify", (1, b, 1), ("err", "DomainError"),
                           ("classify", f"1/{b}", "--base", "1"))
        if case == 4:
            return Request("repr", (0, b, k, True), ("err", "DomainError"),
                           ("repr", "0", "--base", str(k), "--infinite"))
        if case == 5:
            return Request("orbits", (1,), ("err", "DomainError"), ("orbits", "--modulus", "1"))
        if case == 6:  # r is not a proper divisor of the base
            q = self._terminating(k)
            return Request("main1", (q.numerator, q.denominator, k, k, 3), ("err", "PreconditionError"),
                           ("verify", "main1", "--q", str(q), "--r", str(k), "--base", str(k),
                            "--terms", "3"))
        if case == 7:
            n = rng.randint(1, 99)
            return Request("main2", (n, 1, k), ("err", "PreconditionError"),
                           ("verify", "main2", "--n", str(n), "--s", "1", "--base", str(k)))
        if case == 8:  # no placeholder digit
            return Request("magic", ("12", k), ("err", "PreconditionError"), ("magic", "12", "--base", str(k)))
        # a value that does not terminate has no digital root
        p = rng.choice([p for p in (7, 11, 13, 17, 19, 23) if k % p])
        return Request("tf_digroot", (1, p, k), ("err", "DomainError"),
                       ("digroot", f"1/{p}", "--base", str(k)))


def query_warmup(rr, seed: int) -> None:
    gen = QueryGen(random.Random(f"queries-warmup:{seed}"), WARMUP_DEN)
    for req in gen.stream(50):
        run_request(rr, req)


def query_warmup_code(seed: int) -> str:
    rng = random.Random(f"queries-warmup:{seed}")
    b = rng.randint(*WARMUP_DEN)
    return f"radixroot.classify(radixroot.Rational({rng.randrange(1, b)}, {b}), 10)"


def query_round(rr, seed: int, index: int, gate: Gate, cli_requests=()) -> dict:
    """QUERY_ROUND requests from one client, each sent when the last returns.

    ``cli_requests`` are also run through the in-process ``cli.main``;
    only the traced run does that, to give ``cli.main`` its spans.
    """
    gen = QueryGen(random.Random(f"queries:{seed}:{index}"))
    latencies = array("d")
    for req in gen.stream(QUERY_ROUND):
        seconds, outcome = run_request(rr, req)
        latencies.append(seconds)
        gate.record(outcome == req.expected, f"{req.op}{req.args!r}: {outcome!r} != {req.expected!r}")
    cli_s = 0.0
    for req in cli_requests:
        t0 = clock()
        code, stdout = cli_in_process(rr, req)
        cli_s += clock() - t0
        outcome = read_cli(code, stdout, req.op)
        expected = ("err", "exit 2") if req.expected[0] == "err" else req.expected
        gate.record(outcome == expected, f"cli {req.argv}: {outcome!r} != {expected!r}")
    return dict(busy_s=sum(latencies) + cli_s, latencies=latencies,
                rate=len(latencies) / sum(latencies), p50_s=median(latencies))


def cli_in_process(rr, req: Request) -> tuple[int, str]:
    cli = importlib.import_module(rr.__name__ + ".cli")
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main([*req.argv, "--json"])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_fresh(src, req: Request) -> tuple[float, int | None, str]:
    """Wall time, exit code and stdout of ``python -m radixroot ... --json``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = clock()
    try:
        proc = subprocess.run([sys.executable, "-m", "radixroot", *req.argv, "--json"],
                              env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        return clock() - t0, None, ""
    return clock() - t0, proc.returncode, proc.stdout


def run_cli_sample(rr, src, seed: int, gate: Gate) -> list[float]:
    """Run the CLI sample as fresh processes; returns wall times in ms.
    Each answer must agree with the in-process library answer."""
    walls = []
    for req in cli_sample(seed):
        seconds, code, stdout = cli_fresh(src, req)
        walls.append(seconds * 1000)
        outcome = read_cli(code, stdout, req.op)
        expected = library_outcome(rr, req)
        gate.record(outcome == expected, f"cli {req.argv}: {outcome!r} != library {expected!r}")
    return walls


def cli_sample(seed: int) -> list[Request]:
    gen = QueryGen(random.Random(f"queries-cli:{seed}"))
    return [gen.request(kind) for kind in CLI_SAMPLE]


def read_cli(code: int | None, stdout: str, op: str):
    """``cli_outcome``, or ("exc", ...) when the output cannot be read."""
    try:
        return cli_outcome(code, stdout, op)
    except (ValueError, KeyError, TypeError) as exc:
        return ("exc", f"exit {code}: {exc!r}")


def cli_outcome(code: int | None, stdout: str, op: str):
    """Read a CLI result back into the shape the OPS functions return."""
    if code == 2:
        return ("err", "exit 2")
    doc = json.loads(stdout)
    res = doc["result"]
    if op == "classify":
        value = (res["kind"], res["rho0"], res["period"])
    elif op in ("repr", "convert"):
        value = res["text"]
    elif op in ("digroot", "tf_digroot"):
        value = (res["root"], res["persistence"], tuple(res["trajectory"]))
    elif op == "main1":
        value = (tuple(t["root"] for t in res["terms"]), res["congruence_ok"], res["witness"],
                 doc["pass"])
    elif op == "main2":
        value = (res["preconditions_ok"], tuple(res["repetend"]), doc["pass"])
    elif op in ("cor1", "lemma31"):
        value = res["holds"]
    elif op == "orbits":
        value = {int(d): tuple(m) for d, m in res["classes"].items()}
    else:
        value = tuple(res["digits"])
    return ("ok", value)


def library_outcome(rr, req: Request):
    """The in-process answer in the form ``cli_outcome`` gives; named errors
    become the CLI's exit code 2."""
    _, outcome = run_request(rr, req)
    return ("err", "exit 2") if outcome[0] == "err" else outcome


def query_metrics(rounds: list[dict], cli_ms: list[float]) -> tuple[dict, list[tuple]]:
    lat = [x for r in rounds for x in r["latencies"]]
    n = len(lat)
    p50 = median(lat) * 1e6
    p99 = percentile(lat, 0.99) * 1e6
    qps = quartiles([r["rate"] for r in rounds])[0]
    round_p50_ms = quartiles([r["p50_s"] for r in rounds])[1] * 1000
    metrics = {"throughput_per_s": qps, "latency_ms": round_p50_ms}
    named = [("query_p50_us", p50, "us", f"n={n}"),
             ("query_p99_us", p99, "us", f"n={n}, {n - math.ceil(0.99 * n)} beyond"),
             ("queries_per_s", qps, "1/s",
              f"round requests / summed latency, lower quartile of {len(rounds)} rounds"),
             ("query_round_p50_us", round_p50_ms * 1000, "us",
              f"median latency of a round, upper quartile of {len(rounds)} rounds"),
             ("cli_p50_ms", median(cli_ms), "ms", f"n={len(cli_ms)} fresh processes")]
    return metrics, named


# =============================================================================
# big_inputs
# =============================================================================


def prime_with_order(rng: random.Random, k: int, lo: int, hi: int) -> tuple[int, int]:
    """A random prime p with lo <= ord_k(p) <= hi."""
    while True:
        p = rng.randrange(lo + 1, 4 * hi) | 1
        if k % p and oracles.is_prime(p):
            t = oracles.order(k, p)
            if lo <= t <= hi:
                return p, t


def random_prime(rng: random.Random, lo: float, hi: float) -> int:
    while True:
        p = rng.randrange(int(lo), int(hi)) | 1
        if oracles.is_prime(p):
            return p


def is_safe_prime(p: int) -> bool:
    return oracles.is_prime(p) and oracles.is_prime(p // 2)


def random_safe_prime(rng: random.Random, lo: float, hi: float) -> int:
    """A random prime p = 2q + 1 with q prime, lo <= p < hi; the band must
    hold many of them (it does above 1e9)."""
    while True:
        p = 2 * rng.randrange(int(lo) // 2, int(hi) // 2) + 1
        if lo <= p < hi and is_safe_prime(p):
            return p


def nearest_safe_prime(n: int, step: int) -> int:
    """The first safe prime from n on, going up (step 2) or down (step -2)."""
    p = n | 1
    while not is_safe_prime(p):
        p += step
    return p


def big_round_jobs(seed: int, index: int) -> list[tuple]:
    """One round: each long-repetend level once, each followed by
    CLS_PER_REP big-denominator classify jobs (primes on even levels,
    balanced semiprimes on odd ones).

    The classify denominators are built from safe primes p = 2q + 1, so
    trial division of the denominator and of its totient both run to
    about the square root: a job's cost is set by its size, not by how
    p - 1 happens to factor.
    """
    rng = random.Random(f"big_inputs:{seed}:{index}")
    jobs = []
    for i, level in enumerate(REP_LEVELS):
        k = REP_BASES[i % 4]
        p, t = prime_with_order(rng, k, level, int(level * BAND))
        n = rng.randrange(1, 3 * p)
        while n % p == 0:
            n = rng.randrange(1, 3 * p)
        jobs.append(("repetend", n, p, k, t))
        for j in range(CLS_PER_REP * i, CLS_PER_REP * (i + 1)):
            lo = CLS_LEVELS[j]
            if j % 2 == 0:
                d = random_safe_prime(rng, lo, lo * BAND)
            else:
                a = nearest_safe_prime(int(math.sqrt(lo) / rng.uniform(1, 1.01)), -2)
                d = a * nearest_safe_prime(math.ceil(lo / a), 2)
            n = rng.randrange(1, d)
            while math.gcd(n, d) != 1:
                n = rng.randrange(1, d)
            jobs.append(("classify", n, d, REP_BASES[j % 4], None))
    return jobs


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def run_big_job(rr, job: tuple):
    """Time one job under the hang guard; returns (seconds, output or exception)."""
    kind, n, d, k, _ = job
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
    t0 = clock()
    try:
        if kind == "repetend":
            r = rr.to_repeating(rr.Rational(n, d), k)
            text = rr.format_repr(r)
            r2 = rr.parse(text)
            out = (r, text, r2, rr.value_of(r2))
        else:
            out = rr.classify(rr.Rational(n, d), k)
    except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
        out = exc
    finally:
        seconds = clock() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return seconds, out


def check_big_job(job: tuple, out) -> str | None:
    """None when the output is right, else what is wrong."""
    kind, n, d, k, t = job
    if isinstance(out, BaseException):
        return f"{kind} {n}/{d} base {k} raised {out!r}"
    if kind == "repetend":
        r, text, r2, value = out
        parts = oracles.long_division(Fraction(n, d), k)
        if (r.int_digits, r.frac_digits, r.repetend) != parts or len(parts[2]) != t:
            return f"to_repeating({n}/{d}, {k}) digits differ from long division"
        if text != oracles.render(parts, k):
            return f"format_repr of {n}/{d} in base {k} differs from the bracket notation"
        if r2 != r:
            return f"parse(format_repr(r)) != r for {n}/{d} in base {k}"
        if (value.num, value.den) != (n, d):
            return f"value_of round trip of {n}/{d} in base {k} gave {value}"
        return None
    if out.kind.value != "repeating" or out.rho0 != 0 or not oracles.is_exact_order(k, out.period, d):
        return f"classify({n}/{d}, {k}) = {out} is not (repeating, 0, ord)"
    return None


def big_warmup_code(seed: int) -> str:
    p = random_prime(random.Random(f"big-warmup:{seed}"), 100, 997)
    return f"radixroot.to_repeating(radixroot.Rational(1, {p}), 10)"


def big_warmup(rr, seed: int) -> None:
    """Periods below 1000 and denominators below 1e9: disjoint from the jobs."""
    rng = random.Random(f"big-warmup:{seed}")
    p = random_prime(rng, 100, 997)
    rr.value_of(rr.parse(rr.format_repr(rr.to_repeating(rr.Rational(1, p), 10))))
    rr.classify(rr.Rational(1, random_prime(rng, 10**6, 10**7)), 10)


def big_round(rr, seed: int, index: int, gate: Gate, deadline: float) -> dict:
    """Run one round's jobs; past ``deadline`` the remaining jobs are not
    started and count as failed, so a pathological slowdown still ends."""
    digits = 0
    rep = []
    cls = []
    jobs = big_round_jobs(seed, index)
    for done, job in enumerate(jobs):
        if clock() > deadline:
            gate.record(False, f"{len(jobs) - done} jobs not started: run deadline passed",
                        len(jobs) - done)
            break
        seconds, out = run_big_job(rr, job)
        problem = check_big_job(job, out)
        gate.record(problem is None, problem or "")
        if job[0] == "repetend":
            rep.append(seconds)
            digits += 2 * job[4]  # encoded and decoded
        else:
            cls.append(seconds)
    return dict(busy_s=sum(rep) + sum(cls), digits=digits, rep=rep, cls=cls)


def big_metrics(rounds: list[dict]) -> tuple[dict, list[tuple]]:
    digits_per_s = sum(r["digits"] for r in rounds) / sum(sum(r["rep"]) for r in rounds)
    cls = [x for r in rounds for x in r["cls"]]
    # The median of each round's own jobs, then over rounds: pooled over
    # rounds, the median would fall between two period levels and be set
    # by the slowest job of one level and the fastest of the next.
    rep_p50 = median([median(r["rep"]) for r in rounds if r["rep"]]) * 1000
    # classify is printed, not gated: trial division is interpreter-bound,
    # and on a shared host its times drift two to three times as much as
    # the big-integer work of the repetend jobs (see README.md).
    batch_ms = median([sum(r["cls"]) for r in rounds]) * 1000
    metrics = {"throughput_per_s": digits_per_s, "latency_ms": rep_p50}
    named = [("repetend_digits_per_s", digits_per_s, "1/s",
              f"{sum(r['digits'] for r in rounds)} digits in {len(rounds)} rounds"),
             ("repetend_p50_ms", rep_p50, "ms",
              f"round trip, median of {len(rounds)} rounds' medians of {len(REP_LEVELS)} jobs"),
             ("classify_big_p50_ms", median(cls) * 1000, "ms", f"n={len(cls)}"),
             ("classify_batch_ms", batch_ms, "ms",
              f"{len(CLS_LEVELS)} jobs per round, median of {len(rounds)} rounds")]
    return metrics, named


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process, plus ``workers`` times the largest child's."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    scale = 1024 * 1024 if sys.platform == "darwin" else 1024
    return (self_kb + workers * child_kb) / scale
