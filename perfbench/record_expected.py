"""Record the stdout of the worked-example commands that the ``documents``
workload compares byte for byte: ``python3 perfbench/record_expected.py``.

Run it only when a change to the output is intended; the file it writes is
the reference that shows output stayed byte-identical."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    recorded = {}
    for command in workloads.worked_commands():
        code, stdout = workloads.run_command(command)
        if code != 0:
            print(f"error: {command.label} exited with {code}", file=sys.stderr)
            return 1
        recorded[command.label] = stdout
    workloads.expected_path().write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
