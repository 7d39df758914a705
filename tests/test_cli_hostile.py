"""Hostile input to the command line: random argv for every subcommand,
malformed specs, brackets, words and rationals among them.  Every request
ends, within a time bound, with one of the documented exit codes 0, 2, 3
and 64, and raises nothing else.  Sizes are bounded so that no request is
legitimately long: the slowest, `enum-b2 --n 3 --jmax 3`, takes under a
second."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import twobases
from twobases.cli import run

SRC = Path(twobases.__file__).resolve().parents[1]

# seconds one request may take, on a machine several times slower than
# the one the sizes above were timed on
REQUEST_S = 30
EXIT_CODES = {0, 2, 3, 64}

Q_S_SPEC = "poly:[-1,-1,-2,0,1]@[17/10,9/5]"

RATIONALS = st.one_of(
    st.fractions(-3, 3, max_denominator=40).map(str),
    st.sampled_from(["1", "2", "3/2", "17/10", "9/5", "0", "-1", "1/0", "x", "", "1.5",
                     "2/", "/3", "1e3"]),
)
WORD = st.text("01", max_size=6)
SEQUENCES = st.one_of(
    st.builds("{}({})".format, WORD, WORD),
    WORD,
    st.sampled_from(["0*", "(1", "1)", "()", "(2)", "abc", "1(0)1", "(01)(10)"]),
)
BASES = st.one_of(
    RATIONALS,
    SEQUENCES.map("alpha:{}".format),
    st.builds(lambda cs, lo, hi: f"poly:[{','.join(map(str, cs))}]@[{lo},{hi}]",
              st.lists(st.integers(-3, 3), max_size=6), RATIONALS, RATIONALS),
    st.sampled_from([Q_S_SPEC, "poly:[-1,-1,1]@", "poly:", "alpha:", "poly:[1]@[1,2]",
                     "poly:[-1,-1,1]@[3/2]", "poly:[-1,x,1]@[3/2,17/10]"]),
)
GENERATORS = st.one_of(st.text("01", max_size=3), st.sampled_from(["2", "a", "0 1"]))


def _ints(lo, hi, *bad):
    """Integers lo..hi as text, and now and then one of the words bad."""
    return st.sampled_from([str(n) for n in range(lo, hi + 1)] * 3 + list(bad))


# the words after each subcommand: (option, values) pairs, a bare value
# where the option is None; a request may drop any of them except enum-b2's
# --jmax, without which `enum-b2 --n 2` takes seconds (jmax 6)
SUBCOMMANDS = {
    "alpha": [(None, BASES), ("--digits", _ints(1, 300, "0", "-2"))],
    "classify": [(None, BASES), ("--probable-depth", _ints(1, 128, "0", "-1"))],
    "omega": [("--gen", GENERATORS), ("--n", _ints(1, 8, "0", "-1"))],
    "ladder": [("--gen", GENERATORS), ("--N", _ints(1, 4, "0", "-1"))],
    "solve": [("--c", SEQUENCES), ("--d", SEQUENCES), ("--lo", RATIONALS),
              ("--hi", RATIONALS)],
    "enum-b2": [("--n", _ints(1, 3, "0", "-1")), ("--jmax", _ints(1, 3, "0", "-1"))],
    "derived": [("--min", _ints(1, 4, "0", "-1"))],
    "entropy": [(None, BASES)],
    "dim-bound": [(None, BASES), ("--delta", RATIONALS)],
    "count": [("--x", st.one_of(SEQUENCES, RATIONALS)), ("--base", BASES),
              ("--cap", _ints(1, 4, "0", "-1"))],
    "witness": [("--gen", GENERATORS), ("--prop62", _ints(1, 4, "0", "-1"))],
}
GLOBALS = [("--precision", _ints(8, 60, "7", "-1", "x")), ("--jmax", _ints(1, 4, "0")),
           ("--nmax", _ints(1, 6, "0")), ("--depth", _ints(1, 100, "0", "")),
           ("--format", st.sampled_from(["json", "csv", "plain", "xml"]))]
JUNK = st.sampled_from(["--bogus", "", "-", "--", "nosuch", "--digits", "1/2", "(0)"])


@st.composite
def argvs(draw):
    """A command line: some global options, a subcommand (now and then an
    unknown one), each of its words kept or dropped, and now and then a
    junk word somewhere."""
    def one_in(n):
        return draw(st.sampled_from(range(n))) == 0

    argv = []
    for opt, values in GLOBALS:
        if one_in(6):
            argv += [opt, draw(values)]
    name = draw(st.sampled_from(sorted(SUBCOMMANDS) + ["nosuch"]))
    argv.append(name)
    for opt, values in SUBCOMMANDS.get(name, ()):
        if not one_in(16) or opt == "--jmax":
            argv += [draw(values)] if opt is None else [opt, draw(values)]
    if one_in(10):
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv


class _TooSlow(Exception):
    pass


def _bounded(argv) -> tuple:
    """(exit code, stdout) of one in-process request, or _TooSlow past
    REQUEST_S seconds."""
    def expire(signum, frame):
        raise _TooSlow(argv)

    before = signal.signal(signal.SIGALRM, expire)
    signal.alarm(REQUEST_S)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = run(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
    return rc, out.getvalue()


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_hostile_requests_end_with_a_documented_exit_code(argv):
    rc, _ = _bounded(argv)
    assert rc in EXIT_CODES, (argv, rc)


OPTIMIZED_SCRIPT = """
import contextlib, io, json, sys
from twobases.cli import run
got = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run(argv)
    got.append([rc, out.getvalue()])
print(json.dumps(got))
"""


@settings(max_examples=2, derandomize=True, database=None, deadline=None)
@given(st.lists(argvs(), min_size=15, max_size=15))
def test_hostile_requests_under_python_O(sample):
    """A sample of hostile requests in an interpreter with assert
    statements stripped: the same exit codes and stdout as here."""
    want = [list(_bounded(argv)) for argv in sample]
    assert all(rc in EXIT_CODES for rc, _ in want)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT, json.dumps(sample)],
                          capture_output=True, text=True, env=env,
                          timeout=REQUEST_S * len(sample))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == want
