"""The worked-example commands print exactly the recorded reference output.

The commands and the reference stdout are the ones the benchmark's
``documents`` workload byte-compares (``perfbench/workloads.py`` and
``perfbench/expected_stdout.json``); both are only read here.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "expected_stdout.json").read_text(encoding="utf-8"))
COMMANDS = workloads.worked_commands()


def test_every_recorded_command_runs():
    assert sorted(c.label for c in COMMANDS) == sorted(EXPECTED)


@pytest.mark.parametrize("command", COMMANDS, ids=[c.label.replace(" ", "-") for c in COMMANDS])
def test_worked_example_stdout(command):
    code, stdout = workloads.run_command(command)
    assert code == 0
    assert stdout == EXPECTED[command.label]
