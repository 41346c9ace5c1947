"""One digest pins the rendered output of the solver, byte for byte.

It hashes, in this order and without separators:

* the stdout of each of the 12 many-point documents of the benchmark's
  ``documents`` workload under ``solve`` in text, json and latex and under
  ``verify --format json``;
* for each of the 50 seed-2024 suite problems: ``G.to_text()``,
  ``G.to_latex()``, ``Geq.to_text()``, the kernel's ``to_text()``,
  ``to_latex()`` and ``to_json()``, and ``G.apply(f).to_text()`` and
  ``G.apply(f).to_latex()`` for each default forcing function.

A change to how scalars are built, reduced or printed that alters one
character of any of these changes the digest.

A second digest pins the operator ring on the benchmark's ``ring`` triples
(u, v, w), which the first never composes: with ``uv = u*v`` and
``vw = v*w``, it hashes ``to_text()`` and then ``to_latex()`` of ``uv``,
``uv*w``, ``u*vw`` and ``uv.to_standard(0)``, then ``uv.apply(h).to_text()``
for each test function h of the triple.
"""

import hashlib
import random
import sys
from pathlib import Path

from conftest import forcing_functions, random_regular_problem

from stieltjes import extract, greens_operator, to_equitable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

RENDER_SHA256 = "0989721aa2a85611412fc2685938320d64f8ee3df12eb21d90f0baa96ba5abc4"
RING_SHA256 = "27caeccae17a5f6215a3584a8386b907d86e1165fd935562d58769a839d18bec"
DOCUMENT_ARGVS = (("solve", "-", "--format", "text"), ("solve", "-", "--format", "json"),
                  ("solve", "-", "--format", "latex"), ("verify", "-", "--format", "json"))


def rendered_pieces():
    for command in workloads.many_point_commands():
        for argv in DOCUMENT_ARGVS:
            code, stdout = workloads.run_command(
                workloads.Command(command.label, argv, command.document))
            assert code == 0, (command.label, argv)
            yield stdout
    rng = random.Random(workloads.SUITE_SEED)
    forcing = forcing_functions()
    for _ in range(workloads.SUITE_SIZE):
        G = greens_operator(random_regular_problem(rng))
        Geq = to_equitable(G)
        g = extract(Geq)
        yield from (G.to_text(), G.to_latex(), Geq.to_text(),
                    g.to_text(), g.to_latex(), g.to_json())
        for f in forcing:
            u = G.apply(f)
            yield from (u.to_text(), u.to_latex())


def test_rendered_output_digest():
    digest = hashlib.sha256()
    for piece in rendered_pieces():
        digest.update(piece.encode())
    assert digest.hexdigest() == RENDER_SHA256


def ring_pieces():
    for (u, v, w), tests in workloads.build("ring"):
        uv, vw = u * v, v * w
        for op in (uv, uv * w, u * vw, uv.to_standard(0)):
            yield from (op.to_text(), op.to_latex())
        for h in tests:
            yield uv.apply(h).to_text()


def test_operator_ring_digest():
    digest = hashlib.sha256()
    for piece in ring_pieces():
        digest.update(piece.encode())
    assert digest.hexdigest() == RING_SHA256
