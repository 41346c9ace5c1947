"""One output document renders each multi-term polynomial once.

``cli.main`` runs its command inside ``constants._document``: there
``constants._ga_markup`` keeps the markup of each stored polynomial of two
or more terms, keyed by its terms, grid ``n``, leading denominator
coefficient ``lead`` and format, and hands it back for every later
rendering of that polynomial.  The markup goes when ``main`` returns, on
every exit path, and outside ``main`` rendering keeps no state.  Single-term
values (rationals and units) are rendered as they come.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stieltjes import Constant, cli, constants

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

ARGVS = (("solve", "-", "--format", "text"), ("solve", "-", "--format", "json"),
         ("solve", "-", "--format", "latex"), ("verify", "-", "--format", "json"))
MALFORMED = json.dumps({"operator": {"coeffs": ["0", "0", "1"]}, "conditions": [],
                        "unknown": 1})


@pytest.fixture(scope="module")
def documents():
    """Two of the benchmark's many-point documents, as JSON text."""
    return [command.document for command in workloads.many_point_commands()[:2]]


def run(argv, document):
    return workloads.run_command(workloads.Command("render once", tuple(argv), document))


@pytest.fixture
def renders(monkeypatch):
    """The key of every polynomial that reaches the underlying renderer, and
    of every one that ``_ga_markup`` is asked for."""
    rendered, asked = [], []
    render, markup = constants._poly_markup, constants._ga_markup

    def counted_render(terms, n, lead, fmt):
        rendered.append((fmt["name"], n, lead, terms))
        return render(terms, n, lead, fmt)

    def counted_markup(terms, n, lead, fmt):
        asked.append((fmt["name"], n, lead, terms))
        return markup(terms, n, lead, fmt)

    monkeypatch.setattr(constants, "_poly_markup", counted_render)
    monkeypatch.setattr(constants, "_ga_markup", counted_markup)
    return rendered, asked


@pytest.mark.parametrize("argv", ARGVS, ids=["-".join(argv[::2]) for argv in ARGVS])
def test_each_polynomial_is_rendered_once_per_document(documents, renders, argv):
    rendered, asked = renders
    code, _stdout = run(argv, documents[0])
    assert code == 0
    multi = [key for key in rendered if len(key[3]) > 1]
    assert multi
    assert len(multi) == len(set(multi))
    assert set(multi) == {key for key in asked if len(key[3]) > 1}
    # the document repeats its polynomials, and the repeats are not rendered
    assert sum(len(key[3]) > 1 for key in asked) > len(multi)


def test_no_polynomial_is_shared_between_documents(documents, renders):
    """The second run of a document renders all of it again: the markup of
    the first run did not outlive its ``main`` call."""
    rendered, _asked = renders
    counts = []
    for _ in range(2):
        rendered.clear()
        assert run(ARGVS[1], documents[0])[0] == 0
        counts.append(len(rendered))
    assert counts[0] == counts[1] > 0


def test_no_markup_is_left_after_main(documents, monkeypatch):
    seen = []
    parse = cli.parse_problem

    def recorded(data):
        seen.append(constants._MARKUP.get())
        return parse(data)

    monkeypatch.setattr(cli, "parse_problem", recorded)
    assert constants._MARKUP.get() is None
    assert run(ARGVS[0], documents[0])[0] == 0
    assert constants._MARKUP.get() is None
    assert run(ARGVS[0], MALFORMED)[0] == 2
    assert constants._MARKUP.get() is None
    assert len(seen) == 2 and all(isinstance(memo, dict) for memo in seen)


def test_no_markup_is_left_after_an_unhandled_error(documents, monkeypatch):
    def failing(args):
        assert constants._MARKUP.get() is not None
        raise RuntimeError("handler failed")

    monkeypatch.setattr(cli, "_cmd_solve", failing)
    with pytest.raises(RuntimeError):
        run(ARGVS[0], documents[0])
    assert constants._MARKUP.get() is None


def test_back_to_back_documents_print_as_each_alone(documents):
    """Two documents in one process print the bytes each prints in a fresh
    process of its own."""
    argv = ARGVS[0]
    together = [run(argv, document) for document in documents]
    alone = [subprocess.run([sys.executable, "-m", "stieltjes", *argv], input=document,
                            capture_output=True, text=True, encoding="utf-8",
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
             for document in documents]
    assert together[0][1] != together[1][1]
    for (code, stdout), process in zip(together, alone):
        assert (code, stdout) == (process.returncode, process.stdout)


def test_the_key_tells_lead_grid_and_format_apart():
    """Inside one document, values that share numerator terms but not
    ``lead`` or grid, and the text and LaTeX of one value, render as they do
    outside it."""
    e, root_e = Constant.e_power(1), Constant.e_power(Fraction(1, 2))
    values = [(e + 1) / (2 * e + 3), (e + 1) / (3 * e + 5), (root_e + 1) / (2 * root_e + 3),
              e + 1, root_e + 1]
    assert values[0]._num == values[1]._num == values[2]._num
    assert values[0]._den[0][1] != values[1]._den[0][1]
    outside = [(c.to_text(), c.to_latex()) for c in values]
    with constants._document():
        inside = [(c.to_text(), c.to_latex()) for c in values]
        again = [(c.to_text(), c.to_latex()) for c in reversed(values)][::-1]
    assert inside == again == outside
    assert len({text for pair in outside for text in pair}) == 2 * len(values)
