"""Golden CLI output: stdout of a fixed set of commands, byte for byte.

Each command runs in a fresh interpreter, so no cached base or alpha hint
from another test is shared.  JSON output is used wherever a subcommand has
it, so the exact rational brackets are pinned along with the decimals.  A
printed bracket is the bisection cell of the bracket its base was built
with at the printing width, whatever comparisons and signs ran before, so
changing how far a comparison refines moves no golden byte.

The expected bytes live in cli_golden.json.  After a deliberate output
change, rewrite them with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import twobases
from twobases.bases import AlgBase
from twobases.cli import run
from twobases.dimension import _sandwich

GOLDEN = Path(__file__).with_name("cli_golden.json")
SRC = Path(twobases.__file__).resolve().parents[1]

Q_S_SPEC = "poly:[-1,-1,-2,0,1]@[17/10,9/5]"
Q_F_SPEC = "poly:[-1,1,-2,1]@[7/4,9/5]"

CASES = [
    ["solve", "--c", "000(01)", "--d", "0(01)", "--lo", "17/10", "--hi", "9/5"],
    ["ladder", "--gen", "0", "--N", "5"],
    ["enum-b2", "--n", "1"],
    ["enum-b2", "--n", "2", "--jmax", "4"],
    ["enum-b2", "--n", "3", "--jmax", "3"],
    ["derived", "--min", "2"],
    ["--jmax", "4", "--nmax", "5", "derived", "--min", "4"],
    ["entropy", "alpha:(110)"],
    ["dim-bound", "--delta", "1/1000000", "alpha:(11010011001011010010)"],
    ["classify", Q_F_SPEC],
    ["classify", Q_S_SPEC, "--probable-depth", "64"],
    ["count", "--x", "100(10)", "--base", Q_S_SPEC, "--cap", "3"],
    ["witness", "--gen", "0", "--prop62", "3"],
    ["alpha", Q_S_SPEC, "--digits", "4096"],
    ["classify", Q_S_SPEC],
    ["count", "--x", "1(100)", "--base", "alpha:(1100010)"],
]


def _case_ids(cases):
    """The first two words of each command, or the whole command where those
    two repeat an earlier case, marked "alone" when it has no more words."""
    seen, ids = set(), []
    for a in cases:
        short = " ".join(a[:2])
        if short not in seen:
            ids.append(short)
        else:
            ids.append(" ".join(a) if len(a) > 2 else short + " alone")
        seen.add(short)
    return ids


# cases whose bases are certified by enum_b2._pair_roots (the deep-pair
# root of `witness --prop62` among them), ordered by AlgBase.cmp (the 45
# witnesses of `enum-b2 --n 2`) or compared by its equality test, signed by
# the base's power table (AlgBase.sign_of, behind sign_at in the signs at q_n
# and q_{n+1} that `witness --prop62` prints and cmp_rational in
# `dim-bound`) or counted in Q(q) through FieldElem.inv and the remainder
# walks (the 4,096-step refusals of the q_s walk and of a remainder graph
# among them), run again with assert statements stripped: their answers may
# not rest on them
OPTIMIZED = [
    ["enum-b2", "--n", "2", "--jmax", "4"],
    ["derived", "--min", "2"],
    ["--jmax", "4", "--nmax", "5", "derived", "--min", "4"],
    ["witness", "--gen", "0", "--prop62", "3"],
    ["dim-bound", "--delta", "1/1000000", "alpha:(11010011001011010010)"],
    ["classify", Q_F_SPEC],
    ["classify", Q_S_SPEC, "--probable-depth", "64"],
    ["count", "--x", "100(10)", "--base", Q_S_SPEC, "--cap", "3"],
    ["entropy", "alpha:(110)"],
    ["alpha", Q_S_SPEC, "--digits", "4096"],
    ["classify", Q_S_SPEC],
    ["count", "--x", "1(100)", "--base", "alpha:(1100010)"],
]


def _run(args, *flags):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "twobases.cli", "--format", "json", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return {"argv": args, "rc": proc.returncode, "stdout": proc.stdout}


@pytest.mark.parametrize("args", CASES, ids=_case_ids(CASES))
def test_cli_stdout_matches_golden(args):
    expected = {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text())}
    assert _run(args) == expected[tuple(args)]


@pytest.mark.parametrize("args", OPTIMIZED, ids=_case_ids(OPTIMIZED))
def test_cli_stdout_matches_golden_under_python_O(args):
    expected = {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text())}
    assert _run(args, "-O") == expected[tuple(args)]


def test_dim_bound_golden_does_not_depend_on_history(capsys):
    """In one process, the golden dim-bound command prints its golden bytes
    again after the pool sandwich has placed q_s between bases of the
    shared pool."""
    args = next(a for a in CASES if a[0] == "dim-bound")
    expected = {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text())}[tuple(args)]
    q_s = AlgBase.from_poly((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5))
    for _ in range(2):
        rc = run(["--format", "json", *args])
        assert (rc, capsys.readouterr().out) == (expected["rc"], expected["stdout"])
        assert _sandwich(q_s, Fraction(0), 24) == (0, 0)


def test_golden_cases_replayed_in_one_process(capsys):
    """Every golden case through `run` in one process, forward, reversed and
    forward again: what a request prints does not depend on the requests
    before it, whatever bases, witnesses and entropies they built."""
    golden = json.loads(GOLDEN.read_text())
    for entry in golden + golden[::-1] + golden:
        rc = run(["--format", "json", *entry["argv"]])
        assert (rc, capsys.readouterr().out) == (entry["rc"], entry["stdout"]), entry["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([_run(a) for a in CASES], indent=1) + "\n")
