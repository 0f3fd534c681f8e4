"""Run one ncmart benchmark workload and print its metrics.

    python3 bench/run.py --workload identity-suite --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Inputs are made from ``--seed`` and
written under ``.bench_out/``; the program runs from ``src/``.  The
runner starts ``bench/worker.py`` in fresh interpreters, one after the
other: the workload process, then ``SETUP_SAMPLES - 1`` set-up probes.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds every per-layer metric
of a traced run.  The lines above it give provenance, the failures, and a
readable table.  The exit code is 0 when the benchmark ran (failed
operations are counted, not fatal) and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# set-up is measured this many times per run, in separate processes
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150


def _run_worker(args: list[str], result: Path, timeout: float) -> dict:
    # BLAS threads are left as the environment sets them: pinning OpenBLAS to
    # one thread did not narrow the run-to-run spread (see README).
    subprocess.run([sys.executable, str(BENCH / "worker.py"), *args, "--result", str(result)],
                   stdout=sys.stderr.fileno(), timeout=timeout, check=True)
    return json.loads(result.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one ncmart benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncmart" / "__init__.py").is_file():
        print(f"bench: no ncmart sources in {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    directory = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    setup = WORKLOADS[args.workload].write_inputs(args.seed, directory)
    (directory / "setup.json").write_text(json.dumps(setup), encoding="utf-8")

    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(directory)]
    try:
        result = _run_worker(common + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)],
                             directory / "result.json", WORKER_TIMEOUT_S)
        probes = [result] + [_run_worker(common + ["--probe"], directory / f"probe{i}.json",
                                         PROBE_TIMEOUT_S)
                             for i in range(SETUP_SAMPLES - 1)]
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: worker failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(p["setup_s"] for p in probes), "s")
        metrics["ok_ratio"] = ((result["attempted"] - result["failed"]) / result["attempted"],
                               "ratio")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print("setup_s samples (scaled by host speed): "
          + ", ".join(f"{p['setup_s']:.4f}" for p in probes)
          + "; unscaled: " + ", ".join(f"{p['setup_raw_s']:.4f}" for p in probes))
    for note in result["notes"]:
        print(note)
    for error in result["errors"]:
        print(f"FAILED {error}")
    rows = sorted(metrics.items(), key=lambda kv: (kv[1][1] != "s", -kv[1][0], kv[0])) \
        if args.trace else metrics.items()
    for name, (value, unit) in rows:
        print(f"  {name:<52} {value:>16.6g} {unit}")
    (directory / "metrics.json").write_text(json.dumps(metrics, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
