"""Smoke tests for the scripts under scripts/, run as a user runs them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from radixroot import fuzz_main1, fuzz_main2

REPO = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        timeout=120,
    )


def test_repetend_root_survey():
    proc = run_script("repetend_root_survey.py", "--base", "10", "--num", "9", "--max-den", "40")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "base 10: repetend digit sums and roots for 9/den"
    assert lines[-1] == "rows marked * have repetend digit sum divisible by base-1"
    assert re.search(r"den=7 +T=6 +sum=27 +root=9 \* \[1\.\(285714\)\]_10$", proc.stdout, re.M)


def test_repetend_root_survey_takes_only_ascii_decimal_numerals():
    proc = run_script("repetend_root_survey.py", "--base", "١٠")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "invalid integer" in proc.stderr


def test_run_exhaustive_checks_takes_only_ascii_decimal_numerals():
    proc = run_script("run_exhaustive_checks.py", "--bases", "2..3", "--bound", "١٠",
                      "--n-bound", "1_0")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "invalid integer" in proc.stderr


@pytest.mark.parametrize("name, argv, message", [
    ("repetend_root_survey.py", ["--base", "1"], "base must be >= 2, got 1"),
    ("run_exhaustive_checks.py", ["--bases", "2..3", "--bound", "-1"], "bound must be >= 0, got -1"),
    ("run_exhaustive_checks.py", ["--bases", "1..3"], "bases must be >= 2, got 1"),
])
def test_library_errors_exit_2_with_one_error_line(name, argv, message):
    proc = run_script(name, *argv)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {message}"]


def test_run_exhaustive_checks():
    proc = run_script(
        "run_exhaustive_checks.py",
        "--bases", "2..5", "--bound", "20", "--n-bound", "20", "--s-bound", "20",
    )
    assert proc.returncode == 0, proc.stderr
    main1 = fuzz_main1(range(2, 6), 20, 5)
    main2 = fuzz_main2(range(2, 6), 20, 20)
    assert main1.failed == main2.failed == 0
    lines = proc.stdout.splitlines()
    timing = r" \(\d+\.\d\ds, \d+/s\)$"
    assert re.fullmatch(
        rf"main1  tested={main1.tested} failed=0 degenerate={main1.degenerate}{timing}", lines[0]
    )
    assert re.fullmatch(
        rf"main2  tested={main2.tested} skipped={main2.skipped} failed=0"
        rf" degenerate={main2.degenerate}{timing}",
        lines[1],
    )
