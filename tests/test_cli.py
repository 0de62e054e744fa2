import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import radixroot
from radixroot.cli import main, parse_base_range, parse_value_literal
from radixroot import ParseError, PreconditionError, Rational
from radixroot.arith import _decimal_text

from oracles import digits_brute


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "161/36", "--base", "10")
    assert code == 0 and out.strip() == "repeating rho0=2 period=1"
    code, out, _ = run_cli(capsys, "classify", "161/36", "--base", "6", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["command"] == "classify"
    assert doc["inputs"] == {"value": {"num": "161", "den": "36"}, "base": 6}
    assert doc["result"] == {"kind": "terminating", "rho0": 2, "period": 0}


def test_repr_and_convert(capsys):
    assert run_cli(capsys, "repr", "9/7", "--base", "10")[1].strip() == "[1.(285714)]_10"
    assert run_cli(capsys, "repr", "161/36", "--base", "6")[1].strip() == "[4.25]_6"
    code, out, _ = run_cli(capsys, "repr", "161/36", "--base", "6", "--infinite")
    assert code == 0 and out.strip() == "[4.24(5)]_6"
    assert run_cli(capsys, "convert", "[101011]_2", "--to", "3")[1].strip() == "[1121]_3"
    assert run_cli(capsys, "convert", "[25]_8", "--to", "10")[1].strip() == "[21]_10"


def test_repr_json_digit_arrays(capsys):
    code, out, _ = run_cli(capsys, "repr", "161/36", "--base", "6", "--infinite", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["int_digits"] == [4]
    assert doc["result"]["frac_digits"] == [2, 4]
    assert doc["result"]["repetend"] == [5]
    assert doc["result"]["text"] == "[4.24(5)]_6"


def test_convert_round_trips_large_base_literal(capsys):
    code, out, _ = run_cli(capsys, "convert", "[1,30.0,39(7)]_40", "--to", "40")
    assert code == 0 and out.strip() == "[1,30.0,39(7)]_40"


def test_a_dash_reads_the_literal_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[1,30.0,39(7)]_40\n"))
    assert run_cli(capsys, "convert", "-", "--to", "40")[:2] == (0, "[1,30.0,39(7)]_40\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO("7/4"))
    code, out, _ = run_cli(capsys, "verify", "lemma31", "--q", "-", "--base", "10", "--json")
    assert code == 0 and json.loads(out)["inputs"]["q"] == {"num": "7", "den": "4"}
    # A bad literal on stdin reports its own position, as an argument does.
    monkeypatch.setattr(sys, "stdin", io.StringIO("[1,30.0,40]_40"))
    code, out, err = run_cli(capsys, "convert", "-", "--to", "10")
    assert (code, out, err) == (2, "", "error: digit '40' is >= base 40 (at position 8)\n")


def test_convert_reads_a_literal_past_the_argument_limit_from_stdin():
    # Linux refuses one command-line argument over 128 KiB.  The comma
    # notation of 1/65003 in base 60 (T = 65,002) is about 190 KB, so it
    # reaches convert only on stdin; the timeout turns a hang into a failure.
    text = radixroot.format_repr(radixroot.to_repeating(Rational(1, 65003), 60))
    assert len(text) > 128 * 1024
    proc = subprocess.run([sys.executable, "-m", "radixroot", "convert", "-", "--to", "60"],
                          input=text + "\n", capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, text + "\n", "")


def test_repr_zero_infinite_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "repr", "0", "--base", "10", "--infinite")
    assert code == 2 and out == "" and "error" in err


def test_digroot_outputs(capsys):
    code, out, _ = run_cli(capsys, "digroot", "7205", "--base", "10")
    assert code == 0 and out.strip() == "root=5 persistence=2 trajectory=[14, 5]"
    code, out, _ = run_cli(capsys, "digroot", "[2A7E]_16", "--base", "16")
    assert code == 0 and out.strip() == "root=3 persistence=2 trajectory=[33, 3]"
    code, out, _ = run_cli(capsys, "digroot", "0", "--base", "9")
    assert code == 0 and out.strip() == "root=0 persistence=0 trajectory=[]"


def test_digroot_repeating_input_is_rejected_with_reason(capsys):
    code, _, err = run_cli(capsys, "digroot", "161/36", "--base", "10")
    assert code == 2
    assert "denominator prime" in err and "do not divide 10" in err


def child_env():
    """Environment for a ``python -m radixroot`` child that imports the
    same radixroot as this process, installed or not."""
    package_parent = str(Path(radixroot.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("argv", [
    ["digroot", "Q", "--base", "10"],
    ["verify", "main1", "--q", "Q", "--r", "2", "--base", "10"],
    ["verify", "cor1", "--q", "Q", "--r", "2", "--base", "10"],
    ["verify", "lemma31", "--q", "Q", "--base", "10"],
])
def test_termination_only_commands_reject_a_huge_prime_denominator_at_once(argv):
    # 10^29 + 319 is prime; the timeout turns a hang into a failure.
    q = f"1/{10**29 + 319}"
    proc = subprocess.run(
        [sys.executable, "-m", "radixroot", *(q if a == "Q" else a for a in argv)],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert proc.returncode == 2
    assert f"dividing {10**29 + 319} do not divide 10" in proc.stderr


PRIME = 10**29 + 319


@pytest.mark.parametrize("argv, lines", [
    (["digroot", "7", "--base", str(PRIME)], ["root=7 persistence=0 trajectory=[]"]),
    (["classify", "1/3", "--base", str(PRIME)], ["repeating rho0=0 period=2"]),
    (["repr", "1/2", "--base", str(PRIME - 1)], [f"[0.{(PRIME - 1) // 2}]_{PRIME - 1}"]),
    (["verify", "main1", "--q", "1", "--r", "2", "--base", str(2 * PRIME)],
     ["main1: PASS", f"  base={2 * PRIME} q=1 r=2 orbit_delta=1 congruence_ok=True",
      "  j=0 value=1 root=1 orbit=1", f"  j=1 value=1/2 root={PRIME} orbit=1"]),
])
def test_commands_answer_at_once_in_a_base_trial_division_cannot_factor(argv, lines):
    # The base is the prime 10^29 + 319, or P - 1 (largest prime 22 digits)
    # or 2P: the split factors gcd(den, base), never the base, so each
    # command is immediate.  The timeout turns a hang into a failure.
    proc = subprocess.run([sys.executable, "-m", "radixroot", *argv],
                          capture_output=True, text=True, env=child_env(), timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:len(lines)] == lines


def test_main2_sweep_answers_at_once_in_a_base_trial_division_cannot_factor():
    # The smooth tables take only the base's primes <= the bound, from
    # gcd(base, bound!), so the prime 10^29 + 319 is never factored.  A main1
    # sweep over that base still factors it for its proper divisors r.
    proc = subprocess.run([sys.executable, "-m", "radixroot", "fuzz", "main2", "--bases",
                           str(PRIME), "--n-bound", "1", "--s-bound", "2"],
                          capture_output=True, text=True, env=child_env(), timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "tested=0 skipped=1 degenerate=0 failed=0\n", "")


def test_values_past_the_int_string_limit_render_in_both_modes(capsys):
    literal = "[1" + "0" * 20000 + "]_2"
    decimal = "".join(map(str, digits_brute(2**20000, 10)))
    code, out, _ = run_cli(capsys, "convert", literal, "--to", "10")
    assert code == 0 and out.strip() == f"[{decimal}]_10"
    code, out, _ = run_cli(capsys, "convert", literal, "--to", "10", "--json")
    assert code == 0
    assert json.loads(out)["inputs"]["value"] == {"num": decimal, "den": "1"}


BIG_BASE = 2**16700  # 5,028 digits, past the interpreter's 4,300-digit limit


@pytest.mark.parametrize("json_flag", [False, True])
@pytest.mark.parametrize("argv, code, number, path, in_text", [
    (["verify", "main1", "--q", "1", "--r", "2", "--base", BIG_BASE], 0, BIG_BASE,
     ("inputs", "base"), True),
    (["digroot", 10**5000, "--base", BIG_BASE], 0, 10**5000, ("result", "root"), True),
    # The text names only the kind, rho0 and the period.
    (["classify", "5", "--base", BIG_BASE], 0, BIG_BASE, ("inputs", "base"), False),
    # The value terminates, so the check reports FAIL with a reason.
    (["verify", "main2", "--n", 10**5000 + 1, "--s", "1048576", "--base", "10"], 1,
     10**5000 + 1, ("inputs", "n"), True),
], ids=["main1", "digroot", "classify", "main2"])
def test_integers_past_the_int_string_limit_print_in_full(
        capsys, argv, code, number, path, in_text, json_flag):
    limit = sys.get_int_max_str_digits()
    argv = [a if isinstance(a, str) else _decimal_text(a) for a in argv]
    got, out, err = run_cli(capsys, *argv, *["--json"] * json_flag)
    assert (got, err) == (code, "")
    assert sys.get_int_max_str_digits() == limit
    if json_flag:
        doc = json.loads(out, parse_int=str)
        assert doc[path[0]][path[1]] == _decimal_text(number)
    elif in_text:
        assert _decimal_text(number) in out


def test_unexpected_errors_are_not_reported_as_usage_errors(monkeypatch):
    def broken(q, k):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(radixroot.digroot, "tf_digital_root", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["digroot", "7", "--base", "10"])


def test_orbits_output(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--modulus", "9")
    assert code == 0
    assert out.splitlines() == [
        "Γ_1^9 = {1, 2, 4, 5, 7, 8}",
        "Γ_3^9 = {3, 6}",
        "Γ_9^9 = {0}",
    ]
    code, out, _ = run_cli(capsys, "orbits", "--modulus", "2")
    assert out.splitlines() == ["Γ_1^2 = {1}", "Γ_2^2 = {0}"]
    code, out, _ = run_cli(capsys, "orbits", "--modulus", "6")
    assert len(out.splitlines()) == 4
    code, _, _ = run_cli(capsys, "orbits", "--modulus", "1")
    assert code == 2


def test_orbits_json(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--modulus", "9", "--json")
    doc = json.loads(out)
    assert doc["result"]["classes"] == {"1": [1, 2, 4, 5, 7, 8], "3": [3, 6], "9": [0]}


def test_verify_main1_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "main1", "--q", "21", "--r", "2",
                           "--base", "8", "--terms", "5")
    assert code == 0
    assert out.splitlines()[0] == "main1: PASS"
    code, out, _ = run_cli(capsys, "verify", "main1", "--q", "21", "--r", "2",
                           "--base", "8", "--terms", "5", "--json")
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["result"]["orbit_delta"] == 7
    assert [t["root"] for t in doc["result"]["terms"]] == [7] * 6
    assert doc["result"]["terms"][1]["value"] == {"num": "21", "den": "2"}


def test_verify_main1_precondition_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "main1", "--q", "9/7", "--r", "2",
                           "--base", "10", "--terms", "3")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "verify", "main1", "--q", "9", "--r", "3",
                           "--base", "10", "--terms", "1")
    assert code == 2


def test_verify_main2_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "verify", "main2", "--n", "9", "--s", "7", "--base", "10")
    assert code == 0
    assert out.splitlines()[0] == "main2: PASS"
    assert "repetend=285714" in out
    code, out, _ = run_cli(capsys, "verify", "main2", "--n", "1", "--s", "3", "--base", "10")
    assert code == 1
    assert out.splitlines()[0] == "main2: FAIL"
    assert "reason" in out


def test_verify_cor1_and_lemma31(capsys):
    code, out, _ = run_cli(capsys, "verify", "cor1", "--q", "21", "--r", "2", "--base", "8")
    assert code == 0 and out.strip() == "cor1: PASS"
    code, out, _ = run_cli(capsys, "verify", "lemma31", "--q", "1441/20", "--base", "10")
    assert code == 0 and out.strip() == "lemma31: PASS"


def test_fuzz_main1_text_and_exit(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "main1", "--bases", "8..10",
                           "--bound", "12", "--terms", "3")
    assert code == 0
    assert out.startswith("tested=")
    assert "failed=0" in out
    code, out, _ = run_cli(capsys, "fuzz", "main1", "--bases", "3..3", "--bound", "0",
                           "--terms", "3")
    assert code == 0 and "tested=0" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("main1", "--bases", "4..6", "--bound", "-5"),
        ("main1", "--bases", "4..6", "--bound", "5", "--terms", "0"),
        ("main2", "--bases", "4..6", "--n-bound", "-5", "--s-bound", "5"),
        ("main2", "--bases", "4..6", "--n-bound", "5", "--s-bound", "-5"),
    ],
)
def test_fuzz_negative_bounds_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "fuzz", *argv)
    assert code == 2 and out == "" and "must be >=" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("main1", "--bases", "2..3", "--bound", "-1"), "bound must be >= 0, got -1"),
        (("main1", "--bases", "1..3", "--bound", "5"), "bases must be >= 2, got 1"),
        (("main2", "--bases", "5..3", "--n-bound", "5", "--s-bound", "5"),
         "inverted base range '5..3'"),
    ],
)
def test_fuzz_errors_exit_2_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, "fuzz", *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_fuzz_main2_json(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "main2", "--bases", "2..5",
                           "--n-bound", "8", "--s-bound", "8", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert doc["result"]["failed"] == 0
    assert doc["result"]["skipped"] > 0
    assert doc["result"]["degenerate"] > 0
    assert doc["result"]["failures"] == []


def test_fuzz_workers_flag(capsys):
    argv = ["fuzz", "main1", "--bases", "8..9", "--bound", "8", "--terms", "2", "--json"]
    code, out, _ = run_cli(capsys, *argv, "--workers", "2")
    assert code == 0 and json.loads(out)["inputs"]["workers"] == 2
    assert json.loads(out)["result"]["failed"] == 0
    # Without the flag the sweep runs in this process, and the inputs say so.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["inputs"]["workers"] == 1


@pytest.mark.parametrize("text", ["\u0661\u0660", "1_0", " 10", "+10", "-"])
@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "1/7", "--base", "{}"),
        ("fuzz", "main2", "--bases", "2..4", "--n-bound", "{}", "--s-bound", "10"),
        ("fuzz", "main2", "--bases", "2..4", "--n-bound", "10", "--s-bound", "10",
         "--workers", "{}"),
    ],
)
def test_integer_flags_take_only_ascii_decimal_numerals(capsys, argv, text):
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(text) for arg in argv])
    assert excinfo.value.code == 2
    assert "invalid integer" in capsys.readouterr().err


def test_magic_outputs(capsys):
    assert run_cli(capsys, "magic", "2?99561", "--base", "10")[1].strip() == "4"
    code, out, _ = run_cli(capsys, "magic", "?", "--base", "10")
    assert code == 0 and out.strip() == "ambiguous: 0 or 9"
    assert run_cli(capsys, "magic", "1?", "--base", "10")[1].strip() == "8"
    code, out, _ = run_cli(capsys, "magic", "F?", "--base", "16")
    assert code == 0 and out.strip() == "ambiguous: 0 or F"
    code, _, _ = run_cli(capsys, "magic", "123", "--base", "10")
    assert code == 2


def test_literal_and_range_parsing():
    assert parse_value_literal("161/36") == Rational(161, 36)
    assert parse_value_literal("[25]_8") == Rational(21)
    assert parse_value_literal(" 7 ") == Rational(7)
    assert parse_base_range("2..16") == range(2, 17)
    assert parse_base_range("8") == range(8, 9)
    with pytest.raises(PreconditionError):
        parse_base_range("9..3")
    with pytest.raises(PreconditionError):
        parse_base_range("1..4")


@pytest.mark.parametrize(
    "parser, text",
    [
        (parse_value_literal, "\u00b2/3"),
        (parse_value_literal, "3/\u0661"),
        (parse_value_literal, "\u00b2"),
        (parse_value_literal, "5/0"),
        (parse_value_literal, "[1]_\u00b2"),
        (parse_base_range, "\u0661\u0660"),
        (parse_base_range, "1_6"),
        (parse_base_range, "2..1_6"),
        (parse_base_range, " 2..4"),
        (parse_base_range, "-1..4"),
    ],
)
def test_malformed_literals_raise_parse_error(parser, text):
    with pytest.raises(ParseError) as excinfo:
        parser(text)
    assert 0 <= excinfo.value.position <= len(text)


@given(st.one_of(st.text(), st.text(alphabet="0123456789/[]_ \u00b2\u0661")))
def test_value_literals_raise_only_positioned_parse_errors(text):
    try:
        parse_value_literal(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)


def test_literals_past_the_int_string_limit_parse(capsys):
    assert parse_value_literal("1" * 5000) == Rational((10**5000 - 1) // 9)
    assert parse_value_literal("1" * 5000 + "/" + "3" * 5000) == Rational(1, 3)
    code, out, _ = run_cli(capsys, "digroot", "9" * 4999 + "8", "--base", "10")
    assert code == 0
    assert out == run_cli(capsys, "digroot", "[" + "9" * 4999 + "8]_10", "--base", "10")[1]
    assert out.startswith("root=8 ")


@pytest.mark.parametrize(
    "parser, text, message",
    [
        (parse_value_literal, "x" + "1" * 5000, "invalid number literal"),
        (parse_value_literal, "1" * 5000 + "/x", "invalid rational literal"),
        (parse_value_literal, "1" * 5000 + "/0", "zero denominator in"),
        (parse_base_range, "1" * 5000 + "..x", "invalid base range"),
    ],
)
def test_parse_errors_quote_long_literals_by_prefix_and_length(parser, text, message):
    with pytest.raises(ParseError) as excinfo:
        parser(text)
    assert str(excinfo.value).startswith(f"{message} {text[:60]!r}... ({len(text)} characters)")
    assert len(str(excinfo.value)) < 200


def test_bad_literals_exit_2(capsys):
    assert run_cli(capsys, "classify", "-5", "--base", "10")[0] == 2
    assert run_cli(capsys, "classify", "5/0", "--base", "10")[0] == 2
    assert run_cli(capsys, "classify", "x", "--base", "10")[0] == 2
    assert run_cli(capsys, "repr", "[12]_1", "--base", "10")[0] == 2
    assert run_cli(capsys, "digroot", "5", "--base", "1")[0] == 2


def test_argparse_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["classify"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["verify"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_closed_reader_exits_141_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "radixroot", "classify", "1/7", "--base", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    # The child is still starting up, so its first write meets a closed pipe.
    proc.stdout.close()
    _, err = proc.communicate(timeout=30)
    assert proc.returncode == 141
    assert b"Traceback" not in err


def test_installed_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "radixroot", "repr", "9/7", "--base", "10"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[1.(285714)]_10"


def q_json(num, den=1):
    return {"num": str(num), "den": str(den)}


# One row per invocation: argv, exit code, text-mode stdout, and the
# document that --json prints.  A None document marks a usage error: both
# modes print nothing on stdout and the same one-line error on stderr.
GOLDEN = [
    (["classify", "161/36", "--base", "6"], 0, "terminating rho0=2 period=0",
     {"command": "classify",
      "inputs": {"value": q_json(161, 36), "base": 6},
      "result": {"kind": "terminating", "rho0": 2, "period": 0}}),
    (["classify", "9/7", "--base", "10"], 0, "repeating rho0=0 period=6",
     {"command": "classify",
      "inputs": {"value": q_json(9, 7), "base": 10},
      "result": {"kind": "repeating", "rho0": 0, "period": 6}}),
    (["repr", "9/7", "--base", "10"], 0, "[1.(285714)]_10",
     {"command": "repr",
      "inputs": {"value": q_json(9, 7), "base": 10, "infinite": False},
      "result": {"text": "[1.(285714)]_10", "base": 10, "int_digits": [1],
                 "frac_digits": [], "repetend": [2, 8, 5, 7, 1, 4]}}),
    (["repr", "161/36", "--base", "6", "--infinite"], 0, "[4.24(5)]_6",
     {"command": "repr",
      "inputs": {"value": q_json(161, 36), "base": 6, "infinite": True},
      "result": {"text": "[4.24(5)]_6", "base": 6, "int_digits": [4],
                 "frac_digits": [2, 4], "repetend": [5]}}),
    (["convert", "[101011]_2", "--to", "3"], 0, "[1121]_3",
     {"command": "convert",
      "inputs": {"value": q_json(43), "to": 3, "infinite": False},
      "result": {"text": "[1121]_3", "base": 3, "int_digits": [1, 1, 2, 1],
                 "frac_digits": [], "repetend": []}}),
    (["convert", "[1,30.0,39(7)]_40", "--to", "40"], 0, "[1,30.0,39(7)]_40",
     {"command": "convert",
      "inputs": {"value": q_json(546191, 7800), "to": 40, "infinite": False},
      "result": {"text": "[1,30.0,39(7)]_40", "base": 40, "int_digits": [1, 30],
                 "frac_digits": [0, 39], "repetend": [7]}}),
    (["digroot", "[2A7E]_16", "--base", "16"], 0, "root=3 persistence=2 trajectory=[33, 3]",
     {"command": "digroot",
      "inputs": {"value": q_json(10878), "base": 16},
      "result": {"root": 3, "persistence": 2, "trajectory": [33, 3]}}),
    (["orbits", "--modulus", "9"], 0,
     "Γ_1^9 = {1, 2, 4, 5, 7, 8}\nΓ_3^9 = {3, 6}\nΓ_9^9 = {0}",
     {"command": "orbits",
      "inputs": {"modulus": 9},
      "result": {"modulus": 9,
                 "classes": {"1": [1, 2, 4, 5, 7, 8], "3": [3, 6], "9": [0]}}}),
    (["magic", "2?99561", "--base", "10"], 0, "4",
     {"command": "magic",
      "inputs": {"pattern": "2?99561", "base": 10},
      "result": {"digits": [4], "ambiguous": False}}),
    (["magic", "?", "--base", "10"], 0, "ambiguous: 0 or 9",
     {"command": "magic",
      "inputs": {"pattern": "?", "base": 10},
      "result": {"digits": [0, 9], "ambiguous": True}}),
    (["verify", "main1", "--q", "21", "--r", "2", "--base", "8", "--terms", "2"], 0,
     "main1: PASS\n"
     "  base=8 q=21 r=2 orbit_delta=7 congruence_ok=True\n"
     "  j=0 value=21 root=7 orbit=7\n"
     "  j=1 value=21/2 root=7 orbit=7\n"
     "  j=2 value=21/4 root=7 orbit=7",
     {"command": "verify",
      "inputs": {"check": "main1", "q": q_json(21), "r": 2, "base": 8, "terms": 2},
      "result": {"base": 8, "q": q_json(21), "r": 2,
                 "terms": [{"j": 0, "value": q_json(21), "root": 7, "orbit": 7},
                           {"j": 1, "value": q_json(21, 2), "root": 7, "orbit": 7},
                           {"j": 2, "value": q_json(21, 4), "root": 7, "orbit": 7}],
                 "orbit_delta": 7, "congruence_ok": True, "witness": None},
      "pass": True}),
    (["verify", "main2", "--n", "9", "--s", "7", "--base", "10"], 0,
     "main2: PASS\n"
     "  base=10 n=9 s=7 smooth_part=1 p_part=7\n"
     "  repetend=285714 root=9 t''_divisible=True",
     {"command": "verify",
      "inputs": {"check": "main2", "n": 9, "s": 7, "base": 10},
      "result": {"base": 10, "n": 9, "s": 7, "smooth_part": 1, "p_part": 7,
                 "preconditions_ok": True, "repetend": [2, 8, 5, 7, 1, 4],
                 "repetend_root": 9, "t_doubleprime_divisible": True, "reason": None},
      "pass": True}),
    (["verify", "main2", "--n", "1", "--s", "3", "--base", "10"], 1,
     "main2: FAIL\n"
     "  base=10 n=1 s=3 smooth_part=1 p_part=3\n"
     "  reason: gcd(3, 9) = 3 != 1",
     {"command": "verify",
      "inputs": {"check": "main2", "n": 1, "s": 3, "base": 10},
      "result": {"base": 10, "n": 1, "s": 3, "smooth_part": 1, "p_part": 3,
                 "preconditions_ok": False, "repetend": [], "repetend_root": None,
                 "t_doubleprime_divisible": False, "reason": "gcd(3, 9) = 3 != 1"},
      "pass": False}),
    (["verify", "cor1", "--q", "21", "--r", "2", "--base", "8"], 0, "cor1: PASS",
     {"command": "verify",
      "inputs": {"check": "cor1", "q": q_json(21), "r": 2, "base": 8},
      "result": {"holds": True},
      "pass": True}),
    (["verify", "lemma31", "--q", "1441/20", "--base", "10"], 0, "lemma31: PASS",
     {"command": "verify",
      "inputs": {"check": "lemma31", "q": q_json(1441, 20), "base": 10},
      "result": {"holds": True},
      "pass": True}),
    (["fuzz", "main1", "--bases", "8..9", "--bound", "4", "--terms", "2"], 0,
     "tested=23 skipped=0 degenerate=0 failed=0",
     {"command": "fuzz",
      "inputs": {"check": "main1", "bases": "8..9", "bound": 4, "terms": 2, "workers": 1},
      "result": {"tested": 23, "passed": 23, "failed": 0, "skipped": 0, "degenerate": 0,
                 "failures": []},
      "pass": True}),
    (["fuzz", "main2", "--bases", "2..4", "--n-bound", "4", "--s-bound", "4"], 0,
     "tested=3 skipped=18 degenerate=3 failed=0",
     {"command": "fuzz",
      "inputs": {"check": "main2", "bases": "2..4", "n_bound": 4, "s_bound": 4,
                 "workers": 1},
      "result": {"tested": 3, "passed": 3, "failed": 0, "skipped": 18, "degenerate": 3,
                 "failures": []},
      "pass": True}),
    (["classify", "1/0", "--base", "10"], 2,
     "error: zero denominator in '1/0' (at position 2)", None),
    (["verify", "main2", "--n", "1", "--s", "1", "--base", "10"], 2,
     "error: s must be >= 2, got 1", None),
]


@pytest.mark.parametrize("argv, code, text, doc", GOLDEN,
                         ids=[" ".join(row[0]) for row in GOLDEN])
def test_cli_output_is_pinned_in_both_modes(capsys, argv, code, text, doc):
    """Whole stdout and exit code, in text mode and with --json: key order,
    every value, and "pass" only on the commands that check something."""
    if doc is None:
        assert run_cli(capsys, *argv) == (code, "", text + "\n")
        assert run_cli(capsys, *argv, "--json") == (code, "", text + "\n")
        return
    assert run_cli(capsys, *argv) == (code, text + "\n", "")
    assert run_cli(capsys, *argv, "--json") == (code, json.dumps(doc, indent=2) + "\n", "")


def test_fuzz_failures_are_pinned_in_both_modes(capsys, monkeypatch):
    # A trajectory that always ends on 1 fails every tested (n, s) in base 5;
    # s = 2 shares a factor with 5 - 1 and is skipped.
    monkeypatch.setattr(radixroot.theorems, "_trajectory", lambda total, k: [1])
    argv = ["fuzz", "main2", "--bases", "5", "--n-bound", "2", "--s-bound", "3"]
    assert run_cli(capsys, *argv) == (
        1, "tested=2 skipped=1 degenerate=0 failed=2\n"
           "  FAIL {'base': 5, 'n': 1, 's': 3}\n"
           "  FAIL {'base': 5, 'n': 2, 's': 3}\n", "")
    doc = {"command": "fuzz",
           "inputs": {"check": "main2", "bases": "5", "n_bound": 2, "s_bound": 3,
                      "workers": 1},
           "result": {"tested": 2, "passed": 0, "failed": 2, "skipped": 1, "degenerate": 0,
                      "failures": [{"base": 5, "n": 1, "s": 3}, {"base": 5, "n": 2, "s": 3}]},
           "pass": False}
    assert run_cli(capsys, *argv, "--json") == (1, json.dumps(doc, indent=2) + "\n", "")


def test_verify_main2_fails_on_a_nonzero_t_doubleprime_residue(capsys, monkeypatch):
    # 9/7 has root 9 in base 10; only the faked T'' residue fails it.
    monkeypatch.setattr(radixroot.theorems, "_t_doubleprime_residue",
                        lambda s, k, rho0, period: 1)
    argv = ["verify", "main2", "--n", "9", "--s", "7", "--base", "10"]
    assert run_cli(capsys, *argv) == (
        1, "main2: FAIL\n"
           "  base=10 n=9 s=7 smooth_part=1 p_part=7\n"
           "  repetend=285714 root=9 t''_divisible=False\n", "")


def test_verify_main1_failure_is_pinned_in_both_modes(capsys, monkeypatch):
    # Every root is 1, so r^j * R_j = R_0 mod 7 fails at j = 1 (2 != 1) and j = 2 (4 != 1).
    monkeypatch.setattr(radixroot.theorems, "_trajectory", lambda n, k: [1])
    argv = ["verify", "main1", "--q", "21", "--r", "2", "--base", "8", "--terms", "2"]
    assert run_cli(capsys, *argv) == (
        1, "main1: FAIL\n"
           "  base=8 q=21 r=2 orbit_delta=1 congruence_ok=False\n"
           "  j=0 value=21 root=1 orbit=1\n"
           "  j=1 value=21/2 root=1 orbit=1\n"
           "  j=2 value=21/4 root=1 orbit=1\n"
           "  witness: j=1\n", "")
    doc = {"command": "verify",
           "inputs": {"check": "main1", "q": q_json(21), "r": 2, "base": 8, "terms": 2},
           "result": {"base": 8, "q": q_json(21), "r": 2,
                      "terms": [{"j": 0, "value": q_json(21), "root": 1, "orbit": 1},
                                {"j": 1, "value": q_json(21, 2), "root": 1, "orbit": 1},
                                {"j": 2, "value": q_json(21, 4), "root": 1, "orbit": 1}],
                      "orbit_delta": 1, "congruence_ok": False, "witness": 1},
           "pass": False}
    assert run_cli(capsys, *argv, "--json") == (1, json.dumps(doc, indent=2) + "\n", "")


def run_fresh(code):
    """Run ``code`` after ``import radixroot`` in a fresh ``python -I`` and
    return its stdout."""
    code = (f"import sys; sys.path.insert(0, {str(Path(radixroot.__file__).parents[1])!r})\n"
            f"import radixroot\n{code}")
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def test_importing_the_library_loads_no_cli():
    # A fresh interpreter, as perfbench's setup_s measures it: the library
    # alone must not pay for the CLI's parser and JSON writer, nor for
    # dataclasses, which loads inspect, ast and dis.
    out = run_fresh("print(sorted({'radixroot.cli', 'argparse', 'json', 'dataclasses', 'inspect'}"
                    " & set(sys.modules)))")
    assert out == "[]\n"


def test_serial_work_loads_no_process_pool():
    # Only a sweep that opens a pool may load it: queries, serial sweeps and
    # the CLI stay clear of concurrent.futures and multiprocessing, and of
    # dataclasses and inspect too.
    out = run_fresh(
        "from radixroot import Rational, classify, to_repeating, fuzz_main1, fuzz_main2\n"
        "classify(Rational(1, 7), 10); to_repeating(Rational(1, 7), 10)\n"
        "fuzz_main1(range(2, 7), 10, 3); fuzz_main2(range(2, 7), 10, 10)\n"
        "import radixroot.cli; radixroot.cli.main(['classify', '1/7', '--base', '10'])\n"
        "print(sorted({'concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect'}"
        " & set(sys.modules)))")
    assert out.splitlines() == ["repeating rho0=0 period=6", "[]"]


def test_cold_pooled_sweep_gives_the_golden_summary():
    # The first pooled sweep of a fresh process imports multiprocessing
    # itself, and never concurrent.futures.
    out = run_fresh(
        "from radixroot import fuzz_main2, theorems\n"
        "pooled = fuzz_main2(range(2, 17), 100, 100, workers=2)\n"
        "print(pooled)\n"
        "print('multiprocessing.connection' in sys.modules, 'concurrent.futures' in sys.modules,"
        " theorems._cpu_count())\n"
        "print(pooled == fuzz_main2(range(2, 17), 100, 100, workers=1))")
    summary, pool_state, same = out.splitlines()
    assert summary == ("FuzzSummary(tested=58147, passed=58147, failed=0, skipped=31658, "
                       "degenerate=5687, failures=())")
    assert same == "True"
    opened, executor, cpus = pool_state.split()
    assert executor == "False"
    if int(cpus) < 2:
        pytest.skip("one usable CPU: _run_chunked runs the sweep serially and starts no child")
    assert opened == "True"


# The --help of every parser level at 80 columns: the top level, each
# group and each leaf.  The parsers are built from one table, so this pins
# what each of them prints, listing and help-column wrapping included.
HELP = {
    "": """\
usage: radixroot [-h]
                 {classify,repr,convert,digroot,orbits,verify,fuzz,magic} ...

Exact base-k representations, digital roots, orbit structure, and exhaustive
invariance checks.

positional arguments:
  {classify,repr,convert,digroot,orbits,verify,fuzz,magic}
    classify            terminating/repeating classification of a value
    repr                canonical digit representation of a value
    convert             re-encode a value in another base
    digroot             digital root, persistence and trajectory
    orbits              orbit partition of the residues mod n
    verify              run one invariance check
    fuzz                enumerate a check over whole input ranges
    magic               recover the hidden digit of a multiple of base-1

options:
  -h, --help            show this help message and exit
""",
    "classify": """\
usage: radixroot classify [-h] --base BASE [--json] value

positional arguments:
  value        a/b, an integer, a bracket literal, or - to read stdin

options:
  -h, --help   show this help message and exit
  --base BASE
  --json       emit a JSON document
""",
    "repr": """\
usage: radixroot repr [-h] --base BASE [--infinite] [--json] value

positional arguments:
  value        a/b, an integer, a bracket literal, or - to read stdin

options:
  -h, --help   show this help message and exit
  --base BASE
  --infinite   force the repeating form with a trailing repetend
  --json       emit a JSON document
""",
    "convert": """\
usage: radixroot convert [-h] --to TO [--infinite] [--json] value

positional arguments:
  value       a/b, an integer, a bracket literal, or - to read stdin

options:
  -h, --help  show this help message and exit
  --to TO
  --infinite
  --json      emit a JSON document
""",
    "digroot": """\
usage: radixroot digroot [-h] --base BASE [--json] value

positional arguments:
  value        a/b, an integer, a bracket literal, or - to read stdin

options:
  -h, --help   show this help message and exit
  --base BASE
  --json       emit a JSON document
""",
    "orbits": """\
usage: radixroot orbits [-h] --modulus MODULUS [--json]

options:
  -h, --help         show this help message and exit
  --modulus MODULUS
  --json             emit a JSON document
""",
    "verify": """\
usage: radixroot verify [-h] {main1,main2,cor1,lemma31} ...

positional arguments:
  {main1,main2,cor1,lemma31}
    main1               orbit invariance under division by r^j
    main2               repetend digit-sum divisibility by base-1
    cor1                roots divisible by base-1 stay divisible under /r
    lemma31             digit sum and digital root agree mod base-1

options:
  -h, --help            show this help message and exit
""",
    "verify main1": """\
usage: radixroot verify main1 [-h] --q Q --r R --base BASE [--terms TERMS]
                              [--json]

options:
  -h, --help     show this help message and exit
  --q Q          a/b, an integer, a bracket literal, or - to read stdin
  --r R
  --base BASE
  --terms TERMS  largest exponent j
  --json         emit a JSON document
""",
    "verify main2": """\
usage: radixroot verify main2 [-h] --n N --s S --base BASE [--json]

options:
  -h, --help   show this help message and exit
  --n N
  --s S
  --base BASE
  --json       emit a JSON document
""",
    "verify cor1": """\
usage: radixroot verify cor1 [-h] --q Q --r R --base BASE [--json]

options:
  -h, --help   show this help message and exit
  --q Q        a/b, an integer, a bracket literal, or - to read stdin
  --r R
  --base BASE
  --json       emit a JSON document
""",
    "verify lemma31": """\
usage: radixroot verify lemma31 [-h] --q Q --base BASE [--json]

options:
  -h, --help   show this help message and exit
  --q Q        a/b, an integer, a bracket literal, or - to read stdin
  --base BASE
  --json       emit a JSON document
""",
    "fuzz": """\
usage: radixroot fuzz [-h] {main1,main2} ...

positional arguments:
  {main1,main2}

options:
  -h, --help     show this help message and exit
""",
    "fuzz main1": """\
usage: radixroot fuzz main1 [-h] --bases BASES --bound BOUND [--terms TERMS]
                            [--workers WORKERS] [--json]

options:
  -h, --help         show this help message and exit
  --bases BASES      base range, e.g. 2..16
  --bound BOUND      cap on numerators and smooth denominators
  --terms TERMS
  --workers WORKERS
  --json             emit a JSON document
""",
    "fuzz main2": """\
usage: radixroot fuzz main2 [-h] --bases BASES --n-bound N_BOUND --s-bound
                            S_BOUND [--workers WORKERS] [--json]

options:
  -h, --help         show this help message and exit
  --bases BASES
  --n-bound N_BOUND
  --s-bound S_BOUND
  --workers WORKERS
  --json             emit a JSON document
""",
    "magic": """\
usage: radixroot magic [-h] --base BASE [--json] pattern

positional arguments:
  pattern      digit string with one '?' placeholder

options:
  -h, --help   show this help message and exit
  --base BASE
  --json       emit a JSON document
""",
}


@pytest.mark.parametrize("command", HELP, ids=lambda c: c or "radixroot")
def test_help_of_every_parser_level_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main([*command.split(), "--help"])
    assert excinfo.value.code == 0
    out, err = capsys.readouterr()
    assert (_usage_and_rest(out), err) == (_usage_and_rest(HELP[command]), "")


def _usage_and_rest(text: str) -> tuple[str, str]:
    """The usage block with whitespace collapsed, and the rest as printed:
    how argparse wraps a long usage line differs between Python versions."""
    usage, _, rest = text.partition("\n\n")
    return " ".join(usage.split()), rest


def test_readme_cli_tour_comments_are_each_commands_first_output_line(capsys):
    """Each line of the ``sh`` block under README's "## CLI tour" is a
    command and, after "  # ", its first output line ("..." if more follow)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    tour = [line.partition("  # ") for line in block.splitlines()]
    assert len(tour) == 13 and all(comment for _, _, comment in tour)
    for command, _, comment in tour:
        program, *argv = shlex.split(command)
        assert program == "radixroot"
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == comment.removesuffix(" ..."), command
