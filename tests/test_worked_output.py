"""The worked-example commands print exactly the recorded reference output.

The commands and the reference stdout are the ones the benchmark's
``documents`` workload byte-compares (``perfbench/workloads.py`` and
``perfbench/expected_stdout.json``); both are only read here.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "expected_stdout.json").read_text(encoding="utf-8"))
COMMANDS = workloads.worked_commands()
DOCUMENTS_STDOUT_SHA256 = "3bd74f43e8c46f21442591677c707821769d6bc93e1a3487cc383db0bfacba01"


def test_every_recorded_command_runs():
    assert sorted(c.label for c in COMMANDS) == sorted(EXPECTED)


@pytest.mark.parametrize("command", COMMANDS, ids=[c.label.replace(" ", "-") for c in COMMANDS])
def test_worked_example_stdout(command):
    code, stdout = workloads.run_command(command)
    assert code == 0
    assert stdout == EXPECTED[command.label]


def test_documents_stdout_digest():
    """The ``documents_stdout_sha256`` of the benchmark, computed as
    ``perfbench/run.py`` does: the label and stdout of every command of the
    pool, in pool order.  It also pins the 12 many-point ``solve --format
    json`` outputs, which have no recorded reference."""
    digest = hashlib.sha256()
    for command in workloads.build_documents():
        _code, stdout = workloads.run_command(command)
        digest.update(f"{command.label}\n{stdout}\n".encode())
    assert digest.hexdigest() == DOCUMENTS_STDOUT_SHA256
