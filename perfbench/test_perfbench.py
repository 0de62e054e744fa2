"""The benchmark's own tests, at tiny scale: python3 -m pytest -q perfbench"""

import json
import re
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import radixroot  # noqa: E402
from radixroot import digroot, radix, theorems  # noqa: E402

from perfbench import oracles, run, tracer, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_generators_are_deterministic_per_seed():
    def stream(seed):
        return workloads.QueryGen(workloads.random.Random(f"queries:{seed}:0")).stream(300)

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)
    assert workloads.big_round_jobs(7, 0) == workloads.big_round_jobs(7, 0)
    assert workloads.big_round_jobs(7, 0) != workloads.big_round_jobs(8, 0)
    assert workloads.cli_sample(7) == workloads.cli_sample(7)
    assert workloads.query_warmup_code(7) == workloads.query_warmup_code(7)


def test_big_jobs_hit_their_levels():
    jobs = workloads.big_round_jobs(3, 1)
    periods = [t for kind, _, _, _, t in jobs if kind == "repetend"]
    for level, t in zip(workloads.REP_LEVELS, periods):
        assert level <= t <= level * workloads.BAND
    dens = [d for kind, _, d, _, _ in jobs if kind == "classify"]
    for j, (level, d) in enumerate(zip(workloads.CLS_LEVELS, dens)):
        # primes lie in the band; semiprimes a little above it
        assert level <= d <= level * (workloads.BAND if j % 2 == 0 else 1.05)
        assert workloads.oracles.is_prime(d) == (j % 2 == 0)


def test_warmup_inputs_are_disjoint_from_timed_inputs():
    warm = workloads.QueryGen(workloads.random.Random("w"), workloads.WARMUP_DEN)
    assert all(warm.den() > workloads.MAX_DEN for _ in range(200))
    timed = workloads.QueryGen(workloads.random.Random("t"))
    assert all(1 <= timed.den() <= workloads.MAX_DEN for _ in range(200))
    assert not set(workloads.WARMUP_BASES) & set(workloads.SWEEP_BASES)


def test_self_time_of_synthetic_nested_spans():
    # a [0,100] holds b [10,40] and d [50,70]; b holds c [15,25].
    names = ["a", "b", "c", "d"]
    got = tracer.self_times(names, [0, 1, 2, 3], [-1, 0, 1, 0], [0, 10, 15, 50], [100, 40, 25, 70])
    assert got == {"a": (1, 50e-9), "b": (1, 20e-9), "c": (1, 10e-9), "d": (1, 20e-9)}


def test_self_time_of_wrapped_calls_sums_to_the_outer_span():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.002)

    traced_leaf = t.wrap("leaf", leaf)

    def outer():
        for _ in range(3):
            traced_leaf()

    t.wrap("outer", outer)()
    summary = t.summary()
    assert summary["leaf"][0] == 3 and summary["outer"][0] == 1
    total = (t.end[0] - t.start[0]) / 1e9
    assert summary["leaf"][1] + summary["outer"][1] == pytest.approx(total, abs=1e-9)
    assert summary["leaf"][1] >= 0.006 > summary["outer"][1]


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original = radix.classify
    t = tracer.Tracer()
    patches = tracer.install(t, radixroot)
    try:
        for mod in (radixroot, radix, digroot, theorems):
            assert mod.classify is not original and mod.classify.__wrapped__ is original
        radixroot.to_repeating(radixroot.Rational(1, 7), 10)
    finally:
        tracer.uninstall(patches)
    for mod in (radixroot, radix, digroot, theorems):
        assert mod.classify is original
    summary = t.summary()
    assert summary["radix.to_repeating"][0] == 1 and summary["radix.classify"][0] == 1
    assert t.counters["radix.to_repeating.digits"] == 6


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == run.per_layer_spec()
    names = [n for n, _ in e2e] + [n for n, _, _ in layers] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_oracles_on_known_values():
    assert oracles.long_division(Fraction(1, 7), 10) == ((0,), (), (1, 4, 2, 8, 5, 7))
    assert oracles.long_division(Fraction(1, 6), 10) == ((0,), (1,), (6,))
    assert oracles.render(oracles.long_division(Fraction(161, 36), 6), 6) == "[4.25]_6"
    assert oracles.render(oracles.alternate_form(Fraction(161, 36), 6), 6) == "[4.24(5)]_6"
    assert oracles.render(oracles.long_division(Fraction(1201, 40), 40), 40) == "[30.1]_40"
    assert oracles.order(10, 65537) == 65536
    assert oracles.is_exact_order(10, 6, 7) and not oracles.is_exact_order(10, 12, 7)
    assert oracles.prime_factors(2**16 * 1000003 * 999983) == {2, 1000003, 999983}
    assert oracles.digital_root(7205, 10) == (5, 2, (14, 5))


def test_a_query_round_passes_on_the_library():
    gate = workloads.Gate()
    workloads.query_round(radixroot, 5, 0, gate, workloads.cli_sample(5))
    assert gate.failed == 0, gate.messages
    assert gate.attempted == workloads.QUERY_ROUND + len(workloads.CLI_SAMPLE)


def test_gate_flags_a_wrong_query_answer():
    def wrong_classify(q, k):
        c = radix.classify(q, k)
        return radix.RadixClassification(c.kind, c.rho0, c.period + 1)

    fake = types.SimpleNamespace(**{n: getattr(radixroot, n) for n in radixroot.__all__})
    fake.classify = wrong_classify
    gen = workloads.QueryGen(workloads.random.Random("wrong"))
    gate = workloads.Gate()
    for _ in range(20):
        req = gen.request("classify")
        _, outcome = workloads.run_request(fake, req)
        gate.record(outcome == req.expected, "classify")
    assert gate.failed == 20


def test_gate_flags_a_wrong_error_class():
    req = workloads.Request("orbits", (1,), ("err", "PreconditionError"), ())
    assert workloads.run_request(radixroot, req)[1] != req.expected


def test_gate_flags_a_wrong_sweep_summary():
    gate = workloads.Gate()
    good = types.SimpleNamespace(tested=15970, failed=0, degenerate=0, skipped=0)
    workloads.check_sweep(gate, "main1", good, workloads.GOLDEN_MAIN1)
    assert gate.failed == 0
    workloads.check_sweep(gate, "main1", types.SimpleNamespace(**dict(vars(good), tested=15969)),
                          workloads.GOLDEN_MAIN1)
    assert gate.failed == 15969


def test_gate_flags_wrong_big_job_outputs():
    p = 1009
    job = ("repetend", 3, p, 10, oracles.order(10, p))
    seconds, out = workloads.run_big_job(radixroot, job)
    assert workloads.check_big_job(job, out) is None
    r, text, r2, value = out
    assert workloads.check_big_job(job, (r, text[:-1] + "9", r2, value)) is not None
    assert workloads.check_big_job(job, (r, text, r2, radixroot.Rational(4, p))) is not None
    cjob = ("classify", 1, 1000003 * 999983, 10, None)
    _, c = workloads.run_big_job(radixroot, cjob)
    assert workloads.check_big_job(cjob, c) is None
    twice = radix.RadixClassification(c.kind, c.rho0, 2 * c.period)
    assert workloads.check_big_job(cjob, twice) is not None


def test_hang_guard_turns_a_slow_job_into_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "JOB_CAP_S", 0.05)

    def slow_classify(q, k):
        time.sleep(5)

    fake = types.SimpleNamespace(Rational=radixroot.Rational, classify=slow_classify)
    seconds, out = workloads.run_big_job(fake, ("classify", 1, 1000003, 10, None))
    assert isinstance(out, workloads.JobTimeout) and seconds < 1
    assert workloads.check_big_job(("classify", 1, 1000003, 10, None), out) is not None


def test_jobs_past_the_run_deadline_count_as_failed():
    gate = workloads.Gate()
    res = workloads.big_round(radixroot, 1, 0, gate, deadline=workloads.clock() - 1)
    jobs = len(workloads.big_round_jobs(1, 0))
    assert (gate.attempted, gate.failed, res["digits"], res["rep"], res["cls"]) == (jobs, jobs, 0, [], [])
