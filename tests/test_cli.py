"""Command-line interface: output bytes, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twobases
from twobases import conjugates
from twobases.bases import AlgBase, base_from_alpha
from twobases.classify import classify_base
from twobases.cli import run
from twobases.words import parse_epseq

SRC = Path(twobases.__file__).resolve().parents[1]

Q_S_SPEC = "poly:[-1,-1,-2,0,1]@[17/10,9/5]"
Q_F_SPEC = "poly:[-1,1,-2,1]@[7/4,9/5]"


def _run(capsys, *argv):
    rc = run(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_alpha_plain(capsys):
    rc, out, _ = _run(capsys, "--precision", "12", "alpha", Q_F_SPEC,
                      "--digits", "8")
    assert (rc, out) == (0, "11001100\n")
    rc, out, _ = _run(capsys, "alpha", Q_S_SPEC, "--digits", "12")
    assert (rc, out) == (0, "110010000100\n")


def test_solve_json(capsys):
    rc, out, _ = _run(capsys, "solve", "--c", "000(01)", "--d", "0(01)",
                      "--lo", "17/10", "--hi", "9/5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["minpoly"] == [-1, -1, -2, 0, 1]
    assert doc["root"].startswith("1.710644095045032935990634163336")
    assert doc["c"] == "000(01)" and doc["d"] == "0(01)"


def test_solve_plain(capsys):
    rc, out, _ = _run(capsys, "--format", "plain", "--precision", "12",
                      "solve", "--c", "000(01)", "--d", "0(01)",
                      "--lo", "17/10", "--hi", "9/5")
    assert (rc, out) == (0, "1.710644095045\n")


def test_ladder_csv_frozen(capsys):
    rc, out, _ = _run(capsys, "--format", "csv", "--precision", "10",
                      "ladder", "--gen", "0", "--N", "3")
    assert rc == 0
    assert out == (
        "n,root,alpha,beta_word,minpoly\n"
        "1,1.6180339887,(10),11,-1 -1 1\n"
        "2,1.7548776662,(1100),1101,-1 1 -2 1\n"
        "3,1.7845989334,(11010010),11010011,-1 0 1 0 -2 1\n"
    )


def test_omega_plain(capsys):
    rc, out, _ = _run(capsys, "omega", "--gen", "0", "--n", "3")
    assert (rc, out) == (0, "11010011\n")
    rc, out, _ = _run(capsys, "--format", "json", "omega", "--gen", "110",
                      "--n", "1")
    assert rc == 0 and json.loads(out)["omega"] == "111001"


def test_enum_b2_csv(capsys):
    rc, out, err = _run(capsys, "--format", "csv", "--precision", "10",
                        "enum-b2", "--n", "1")
    assert rc == 0
    assert out == (
        "root,c,d,minpoly,admissible\n"
        "1.7106440950,000(01),0(01),-1 -1 -2 0 1,1\n"
        "1.7548776662,0000(01),0(01),-1 1 -2 1,1\n"
    )
    assert "j <= 6" in err     # truncation note stays off stdout
    # local flag narrows the sweep and wins over the global default
    rc, out, _ = _run(capsys, "--format", "csv", "--precision", "10",
                      "enum-b2", "--n", "1", "--jmax", "4")
    assert rc == 0 and out.count("\n") == 2


def test_enum_b2_json_note(capsys):
    rc, out, _ = _run(capsys, "--format", "json", "--precision", "10",
                      "enum-b2", "--n", "1")
    doc = json.loads(out)
    assert rc == 0
    assert "jmax_bound_note" in doc and doc["jmax"] == 6
    assert [w["root"] for w in doc["witnesses"]] \
        == ["1.7106440950", "1.7548776662"]


def test_classify_json(capsys):
    rc, out, _ = _run(capsys, "--precision", "10", "classify", Q_F_SPEC)
    doc = json.loads(out)
    assert rc == 0
    assert doc["class"] == "V\\Ubar" and doc["alpha"] == "(1100)"
    assert doc["evidence"]["first_fail"]["weak_upper"] is None
    assert doc["base"]["minpoly"] == [-1, 1, -2, 1]


def test_classify_probable_and_refusal(capsys):
    # without the flag, an aperiodic expansion is refused outright
    rc, _, err = _run(capsys, "classify", Q_S_SPEC)
    assert rc == 2 and "domain error" in err
    rc, out, _ = _run(capsys, "classify", Q_S_SPEC, "--probable-depth", "64")
    doc = json.loads(out)
    assert rc == 0
    assert doc["probable"] is True and doc["depth"] == 64
    assert doc["class"] == "not-V"
    assert "not certified" in doc["note"]


# the two refusals of the golden cases, and the certificate each names
GOLDEN_REFUSALS = [
    (["classify", Q_S_SPEC],
     "remainder 63 of the orbit of 1 escapes: a conjugate has modulus rho >= 1.3450",
     "no remainder cycle within 4096 steps"),
    (["count", "--x", "1(100)", "--base", "alpha:(1100010)"],
     "remainder graph is infinite: state 256 escapes: a conjugate has modulus rho >= 1.0204",
     "remainder graph exceeded the state budget"),
]


@pytest.mark.parametrize("argv, escape, budget", GOLDEN_REFUSALS)
def test_golden_refusals_name_their_certificate(capsys, monkeypatch, argv, escape, budget):
    """Each golden refusal exits 2 with nothing on stdout and names its
    escape on stderr; with the escape test off it is refused all the
    same, by the budget, with the budget's text."""
    rc, out, err = _run(capsys, *argv)
    assert (rc, out) == (2, "") and escape in err
    monkeypatch.setattr(conjugates, "escapes", lambda w, i: None)
    rc, out, err = _run(capsys, *argv)
    assert (rc, out) == (2, "") and budget in err


@pytest.mark.parametrize("alpha", ["(1110)", "(111010)", "(11100100)"])
def test_probable_classify_agrees_with_classify_base_on_periodic_alphas(capsys, alpha):
    """A tie between the last few digits of the prefix and the reflected
    alpha is no failure of a shift condition: at depth 64 these bases are
    placed where the certified classifier places them."""
    rc, out, _ = _run(capsys, "classify", f"alpha:{alpha}", "--probable-depth", "64")
    assert rc == 0
    want = classify_base(base_from_alpha(parse_epseq(alpha))).tag.value
    assert json.loads(out)["class"] == want == "Ubar\\U"


def test_count_json_and_plain(capsys):
    rc, out, _ = _run(capsys, "count", "--x", "100(10)", "--base", Q_S_SPEC,
                      "--cap", "3")
    doc = json.loads(out)
    assert rc == 0
    assert (doc["count"], doc["exact"], doc["display"]) == (2, True, "Exact(2)")
    rc, out, _ = _run(capsys, "--format", "plain", "count", "--x", "1",
                      "--base", "poly:[-1,-1,1]@[3/2,17/10]", "--cap", "2")
    assert (rc, out) == (0, "AtLeast(3)\n")


def test_witness_json(capsys):
    rc, out, _ = _run(capsys, "--precision", "10", "witness", "--gen", "10")
    doc = json.loads(out)
    assert rc == 0
    assert doc["root"] == "1.7548776662" and doc["admissible"] is True
    assert (doc["c"], doc["d"]) == ("0(01)", "0000(01)")
    assert doc["minpoly"] == [-1, 1, -2, 1]


def test_witness_prop62(capsys):
    rc, out, _ = _run(capsys, "--precision", "10", "witness", "--gen", "0",
                      "--prop62", "2")
    doc = json.loads(out)
    assert rc == 0
    assert (doc["sign_at_qn"], doc["sign_at_qn1"]) == (-1, 1)
    assert doc["root"] == "1.7770423059"
    assert doc["minpoly"] == [-1, -1, -1, -1, -2, 0, 1]
    assert (doc["c"], doc["d"]) == ("00000(01)", "0(01)")


@pytest.mark.parametrize("argv", [
    ["ladder", "--gen", "1", "--N", "2"],
    ["witness", "--gen", "1"],
    ["witness", "--gen", "1", "--prop62", "2"],
    ["omega", "--gen", "1", "--n", "1"],
])
def test_generator_ending_in_1_is_refused(capsys, argv):
    """1^inf is the expansion of q = 2, not a component's generator: each
    command refuses it as a component, with nothing on stdout."""
    rc, out, err = _run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "'1' does not generate a component" in err


def test_derived_json(capsys):
    rc, out, _ = _run(capsys, "--precision", "10", "derived", "--min", "2")
    doc = json.loads(out)
    assert rc == 0
    assert doc["root"] == "1.7548776662" and doc["minpoly"] == [-1, 1, -2, 1]


def test_entropy_json(capsys):
    rc, out, _ = _run(capsys, "--precision", "10", "entropy", "alpha:(110)")
    doc = json.loads(out)
    assert rc == 0
    assert doc["states"] == 7 and doc["zero"] is False
    assert doc["entropy_log_dec"] == ["0.4812118250", "0.4812118251"]
    assert doc["dim_dec"] == ["0.7896772330", "0.7896772331"]
    assert doc["growth"]["minpoly"] == [-1, -1, 1]


def test_dim_bound_certified(capsys):
    rc, out, _ = _run(capsys, "--precision", "10", "dim-bound",
                      "--delta", "1/1000000",
                      "alpha:(11010011001011010010)")
    doc = json.loads(out)
    assert rc == 0
    assert doc["certified_below_one"] is True
    lo, hi = doc["bound"]["dec"]
    assert lo == "0.3564972860" and hi == "0.4143609464"
    rc, out, _ = _run(capsys, "--format", "plain", "--precision", "10",
                      "dim-bound", "--delta", "1/1000000",
                      "alpha:(11010011001011010010)")
    assert (rc, out) == (0, "0.3564972860 0.4143609464 below-one\n")


@pytest.mark.parametrize("argv", [
    ("dim-bound", "--delta", "1/1000000", "alpha:(11010011001011010010)"),
    ("classify", Q_F_SPEC),
    ("count", "--x", "1000(01)", "--base", Q_S_SPEC),
])
def test_plain_output_builds_no_json(capsys, monkeypatch, argv):
    """Under --format plain the base's JSON (and the minimal polynomial it
    factors) is never built; under json it is built once."""
    calls = []
    to_json = AlgBase.to_json

    def counted(self, *args):
        calls.append(self)
        return to_json(self, *args)
    monkeypatch.setattr(AlgBase, "to_json", counted)
    rc, _, _ = _run(capsys, "--format", "plain", *argv)
    assert rc == 0 and calls == []
    rc, _, _ = _run(capsys, "--format", "json", *argv)
    assert rc == 0 and len(calls) == 1


def test_exit_codes(capsys):
    assert _run(capsys, "nosuch")[0] == 64
    assert _run(capsys)[0] == 64
    assert _run(capsys, "--precision", "4", "omega", "--gen", "0", "--n", "1")[0] == 64
    assert _run(capsys, "--jmax", "0", "enum-b2", "--n", "1")[0] == 64
    assert _run(capsys, "enum-b2", "--n", "1", "--jmax", "0")[0] == 2
    assert _run(capsys, "alpha", "poly:[-1,-1,1]@")[0] == 2
    # non-integer coefficients, and brackets without exactly two ends
    for spec in ("poly:[-1,x,1]@[3/2,17/10]", "poly:[-1,1.5,1]@[3/2,17/10]",
                 "poly:[-1,-1,1]@[3/2]", "poly:[-1,-1,1]@[1,3/2,2]"):
        assert _run(capsys, "alpha", spec)[0] == 2
    assert _run(capsys, "alpha", "alpha:(02)")[0] == 2
    rc, _, err = _run(capsys, "solve", "--c", "0*", "--d", "0*",
                      "--lo", "3/2", "--hi", "8/5")
    assert rc == 3 and "not found" in err


def test_byte_determinism(capsys):
    args = ("--precision", "12", "enum-b2", "--n", "1")
    first = _run(capsys, *args)
    second = _run(capsys, *args)
    assert first == second
    args = ("--format", "csv", "ladder", "--gen", "0", "--N", "4")
    assert _run(capsys, *args) == _run(capsys, *args)


def _fresh(argv, *flags):
    """(exit code, stdout, stderr) of one command in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, *flags, "-m", "twobases.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_a_sequence_of_runs(capsys):
    """run builds its parser once per process; a usage error, then two
    commands, print what each prints in an interpreter of its own."""
    sequence = [["--bogus", "alpha", Q_F_SPEC],
                ["alpha", Q_F_SPEC],
                ["--format", "json", "ladder", "--gen", "0", "--N", "3"]]
    got = [_run(capsys, *argv) for argv in sequence]
    assert got[0][0] == 64
    assert got == [_fresh(argv) for argv in sequence]


# one command of each subcommand that may reach factoring, the
# characteristic polynomial or the entropy bounds
NO_SYMPY = [
    ["alpha", Q_F_SPEC],
    ["classify", Q_S_SPEC, "--probable-depth", "64"],
    ["count", "--x", "100(10)", "--base", Q_S_SPEC, "--cap", "3"],
    ["solve", "--c", "000(01)", "--d", "0(01)", "--lo", "17/10", "--hi", "9/5"],
    ["entropy", "alpha:(110)"],
    ["ladder", "--gen", "0", "--N", "6"],
    ["witness", "--gen", "0", "--prop62", "4"],
    ["dim-bound", "--delta", "1/1000000", "alpha:(11010011001011010010)"],
    ["enum-b2", "--n", "2", "--jmax", "4"],
    ["derived", "--min", "3"],
]
NO_SYMPY_SCRIPT = """
import contextlib, io, json, sys
from twobases.cli import run
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(run(argv))
print(json.dumps({"codes": codes, "sympy": "sympy" in sys.modules,
                  "mpmath": "mpmath" in sys.modules}))
"""


def test_no_subcommand_loads_sympy():
    for flags in ((), ("-O",)):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        proc = subprocess.run([sys.executable, *flags, "-c", NO_SYMPY_SCRIPT, json.dumps(NO_SYMPY)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"codes": [0] * len(NO_SYMPY), "sympy": False,
                                           "mpmath": False}
