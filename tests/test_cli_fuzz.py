"""``cli.main`` ends every document with an exit code in 0..4 and a bounded
run time: arbitrary JSON values, and the worked examples with leaves replaced
by huge literals, wrong types, divisions by zero and deep nesting.  The search
is derandomized and keeps no example database, so every run tries the same
documents."""

import contextlib
import io
import json
import signal
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_cli import FOUR_POINT_SPEC, INTRO_SPEC, NONLOCAL_SPEC

from stieltjes.cli import main

SECONDS_PER_CALL = 5

COMMANDS = [
    ["solve", "-"],
    ["solve", "-", "--format", "json"],
    ["solve", "-", "--format", "latex", "--no-verify"],
    ["verify", "-"],
    ["verify", "-", "--format", "json"],
    ["kernel", "-", "0", "1"],
    ["kernel", "-", "-1", "1", "--format", "json"],
]

# Replacement leaves as JSON text, spliced in after json.dumps: some of them
# (a 5000-digit integer, 10^5 nested arrays) json.dumps cannot write
LEAVES = [
    '"1/0"', '"x/0"', '"x/(x-x)"', '"0"', '"-1"', '"1/3"', '"x"', '"exp(x)"', '"xi"', '""',
    '"(("', '"x^"', '"1e5"', '"' + "9" * 40 + '"', '"-' + "9" * 40 + '"', '"1/' + "7" * 40 + '"',
    '"' + "9" * 5000 + '"', "9" * 5000, str(10**40), "-1", "0", "3", "41", "1.5", "1e999",
    "true", "false", "null", "[]", "{}", '["0", "1"]', '{"point": "0"}',
    "[" * 100000 + "]" * 100000, "[" * 30 + '"1"' + "]" * 30,
]
SENTINEL = "\x00leaf\x00"


class CallTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise CallTimeout(f"cli.main ran for more than {SECONDS_PER_CALL} s")


def run_main(argv, text):
    """Run ``cli.main(argv)`` on the document ``text`` given as stdin; the
    exit code, with an exception if it runs over SECONDS_PER_CALL."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_CALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = stdin


def leaf_paths(doc, path=()):
    """The paths to every string, number, boolean and null of ``doc``."""
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in leaf_paths(value, path + (key,))]
    if isinstance(doc, list):
        return [p for i, value in enumerate(doc) for p in leaf_paths(value, path + (i,))]
    return [path]


@st.composite
def mutated_documents(draw):
    example = draw(st.sampled_from([INTRO_SPEC, FOUR_POINT_SPEC, NONLOCAL_SPEC]))
    doc = json.loads(json.dumps(example))
    paths = leaf_paths(doc)
    leaves = draw(st.lists(st.tuples(st.sampled_from(paths), st.sampled_from(LEAVES)),
                           min_size=1, max_size=3))
    for path, _leaf in leaves:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = SENTINEL
    text = json.dumps(doc)
    for _path, leaf in leaves:
        text = text.replace(json.dumps(SENTINEL), leaf, 1)
    return text


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(["operator", "coeffs", "conditions",
                                                         "local", "global", "point", "order",
                                                         "coeff", "fundamental_system"])
                                        | st.text(max_size=8), children, max_size=4)),
    max_leaves=12)

# the bound of SECONDS_PER_CALL replaces hypothesis's deadline
FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=300)
@given(argv=st.sampled_from(COMMANDS), value=json_values)
def test_arbitrary_json_values_end_in_an_exit_code(argv, value):
    assert run_main(argv, json.dumps(value)) in range(5)


@settings(FUZZ, max_examples=500)
@given(argv=st.sampled_from(COMMANDS), text=mutated_documents())
def test_mutated_worked_examples_end_in_an_exit_code(argv, text):
    assert run_main(argv, text) in range(5)
