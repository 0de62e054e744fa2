"""Smoke tests for the scripts under scripts/, run as a user runs them."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name, argv, message", [
    ("repetend_root_survey.py", ["--base", "1"], "base must be >= 2, got 1"),
])
def test_library_errors_exit_2_with_one_error_line(name, argv, message):
    proc = run_script(name, *argv)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {message}"]


def test_code_size_totals_match_plain_line_counts():
    proc = run_script("code_size.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    modules = sorted((REPO / "src" / "radixroot").glob("*.py"))
    assert [row[0] for row in rows] == [path.name for path in modules]
    lines = [len(path.read_text(encoding="utf-8").splitlines()) for path in modules]
    assert [int(row[1]) for row in rows] == lines
    assert all(0 < int(row[2]) <= int(row[1]) for row in rows)
    assert total == ["total", str(sum(lines)), str(sum(int(row[2]) for row in rows))]


def test_code_size_leaves_out_docstrings_comments_and_blank_lines():
    code_lines = runpy.run_path(str(REPO / "scripts" / "code_size.py"))["code_lines"]
    source = ('"""Module\ndocstring."""\n# comment\n\nx = 1  # trailing\n'
              'def f():\n    """doc"""\n    return (1,\n            2)\n')
    assert code_lines(source) == 4
