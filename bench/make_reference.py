"""Write bench/reference/<workload>.json from the program as it stands.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs the default seed's first ``trace_cycles`` cycles of each
workload (all workloads when none is named) and stores their digests.
Timed runs on the default seed fail any operation whose digest differs.
Regenerate only when a change to ncmart is meant to move these numbers,
and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from worker import run_operation  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, reference_path  # noqa: E402


def main(argv: list[str]) -> int:
    for name in argv or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        directory = BENCH.parent / ".bench_out" / f"reference-{name}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        workload.write_inputs(DEFAULT_SEED, directory)
        digests = []
        for op in workload.first_operations(DEFAULT_SEED, directory):
            outcome, _ = run_operation(op)
            if outcome.error:
                print(f"{name}: {outcome.error}", file=sys.stderr)
                return 1
            digests.append(outcome.digest)
        path = reference_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"workload": name, "seed": DEFAULT_SEED,
                                    "operations": digests}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(BENCH.parent)}: {len(digests)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
