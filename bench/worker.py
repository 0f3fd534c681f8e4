"""One benchmark process: set up, run the workload's operations, measure.

Started by ``bench/run.py`` in a fresh interpreter, so ``import ncmart`` is
part of the measured set-up and the peak resident memory belongs to the
workload alone.  It writes its result as JSON to ``--result``; its own
standard output carries nothing the runner parses.

Modes:

* ``--probe``: set up only and report ``setup_s``;
* ``--trace 0``: run whole cycles of operations until ``--seconds`` have
  passed and report the end-to-end metrics;
* ``--trace 1``: run the workload's first ``trace_cycles`` cycles twice,
  untraced and then traced, and report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import provenance
import tracer as tr
from hostspeed import HostSpeed
from workloads import (DEFAULT_SEED, WORKLOADS, Operation, Outcome, compare_digest,
                       load_reference, reference_path)

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS_KEPT = 20


def measure_setup(entries: list) -> float:
    """Seconds for ``import ncmart`` plus the first build of each input."""
    t0 = time.perf_counter()
    import ncmart
    from ncmart.harness.config import config_from_file, load_config, preset
    for kind, arg in entries:
        if kind == "file":
            config_from_file(arg).build_filtration()
        elif kind == "preset":
            load_config(preset(arg)).build_filtration()
        else:
            ncmart.TracialAlgebra([arg]).identity()
    return time.perf_counter() - t0


def run_operation(op: Operation, around=contextlib.nullcontext) -> tuple[Outcome, float]:
    """Run and check one operation; any failure becomes an error outcome.

    Only ``op.call()`` is timed.  ``around`` is entered just inside the
    timed region (the traced pass uses it for the operation's root span).
    """
    try:
        op.prepare()
    except Exception as exc:
        return Outcome(op.instances, error=f"{op.label}: prepare raised {exc!r}"), 0.0
    t0 = time.perf_counter()
    try:
        with around():
            result = op.call()
    except (Exception, SystemExit) as exc:
        return (Outcome(op.instances, error=f"{op.label}: raised {exc!r}"),
                time.perf_counter() - t0)
    seconds = time.perf_counter() - t0
    try:
        return op.check(result), seconds
    except Exception as exc:
        return Outcome(op.instances, error=f"{op.label}: check raised {exc!r}"), seconds


def reference_error(index: int, outcome: Outcome, reference: list | None) -> str | None:
    """Why the ``index``-th outcome disagrees with the reference, or None.

    ``reference`` is None when the seed has no reference; an empty list
    (missing or unreadable file) fails the first operation.
    """
    if reference is None or outcome.error is not None:
        return None
    if index >= len(reference):
        return "reference missing or unreadable" if index == 0 else None
    try:
        diff = compare_digest(outcome.digest, reference[index])
    except Exception as exc:
        diff = f"reference comparison raised {exc!r}"
    return None if diff is None else f"operation {index} vs reference: {diff}"


class Tally:
    """Attempted and failed operations with the first few error messages."""

    def __init__(self):
        self.attempted = self.failed = self.instances = 0
        self.errors: list[str] = []

    def add(self, outcome: Outcome, error: str | None = None) -> None:
        """Count one operation; ``error`` (default: the outcome's) fails it."""
        self.attempted += 1
        error = error or outcome.error
        if error is None:
            self.instances += outcome.instances
            return
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(error)


def tail_latency(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that has
    at least ten operations beyond it; the maximum when there are fewer."""
    ordered = sorted(durations)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def summarize_calls(calls: list[tuple[int, float, bool]]) -> tuple[dict, str]:
    """Timing metrics from (instances, seconds, ok) per call, and a note.

    Failed calls count in the time but not in the instances or latencies.
    """
    latencies = [seconds for _, seconds, ok in calls if ok] or [c[1] for c in calls]
    tail, pct, count = tail_latency(latencies)
    metrics = {
        "instances_per_s": (sum(n for n, _, ok in calls if ok) / sum(c[1] for c in calls),
                            "1/s"),
        "call_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "call_tail_ms": (1000.0 * tail, "ms"),
    }
    return metrics, f"call_tail_ms is p{pct:.1f} of {count} operations"


def run_timed(workload, seed: int, seconds: float, directory: Path) -> dict:
    """Run whole cycles of operations until ``seconds`` of wall time have passed.

    Each call's wall time is divided by the host's slowdown around it (see
    hostspeed.py), so that neighbours loading the host do not move the
    metrics; the unscaled figures are printed beside them.
    """
    reference = load_reference(reference_path(workload.name)) if seed == DEFAULT_SEED \
        else None
    tally = Tally()
    host = HostSpeed()
    calls = []  # (instances, start, seconds, ok)
    start = time.perf_counter()
    for ops in workload.cycles(seed, directory):
        for op in ops:
            host.maybe_sample()
            t0 = time.perf_counter()
            outcome, dt = run_operation(op)
            error = outcome.error or reference_error(len(calls), outcome, reference)
            tally.add(outcome, error and f"operation {len(calls)}: {error}")
            calls.append((op.instances, t0, dt, error is None))
        if time.perf_counter() - start >= seconds:
            break
    host.sample()
    wall = time.perf_counter() - start
    scaled = [(n, dt / host.factor(t0, t0 + dt), ok) for n, t0, dt, ok in calls]
    metrics, note = summarize_calls(scaled)
    raw, _ = summarize_calls([(n, dt, ok) for n, _, dt, ok in calls])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB")
    notes = [
        note,
        "unscaled wall time: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()),
        f"host slowdown over the run: {host.factor():.4f} "
        f"(median of {sum(len(k) for _, k in host.points)} kernel samples)",
        f"{len(calls)} operations, {sum(c[2] for c in calls):.3f} s of calls "
        f"in {wall:.3f} s wall",
    ]
    return {"tally": tally, "metrics": metrics, "notes": notes}


def run_traced(workload, seed: int, directory: Path) -> dict:
    """Run the first ``trace_cycles`` cycles, each operation twice in a row:
    untraced, then traced.

    Pairing the two runs of an operation puts both under the same host
    load, so the overhead ratio (traced over untraced call time) does not
    move with the neighbours.  Both runs are checked; only the traced runs
    feed the layer metrics.
    """
    tally = Tally()
    tracer = tr.Tracer()
    untraced_s = traced_s = wall = 0.0
    plain = workload.first_operations(seed, directory)
    traced = workload.first_operations(seed, directory)
    for index, (op, twin) in enumerate(zip(plain, traced)):
        outcome, dt = run_operation(op)
        untraced_s += dt
        tally.add(outcome)
        twin.prepare()
        with tr.installed(tracer):
            t0 = time.perf_counter()
            outcome, dt = run_operation(twin, lambda: tracer.operation(index))
            wall += time.perf_counter() - t0
        traced_s += dt
        tally.add(outcome)
    tracer.write(directory / "spans.jsonl.gz")

    totals = tracer.layer_totals()
    metrics = {}
    for layer in tr.layer_names():
        count, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.count"] = (count, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    attempts = totals.get("inequalities.bg_ratio", (0, 0.0))[0]
    undefined = tracer.counts[tr.RATIO_UNDEFINED]
    layer_self = sum(s for name, (_, s) in totals.items() if name != tr.ROOT)
    metrics.update({
        f"{tr.RECORDS}.count": (tracer.counts[tr.RECORDS], "count"),
        f"{tr.RATIO_UNDEFINED}.count": (undefined, "count"),
        "inequalities.rows_per_attempt": ((attempts - undefined) / attempts if attempts
                                          else 0.0, "ratio"),
        "trace.untraced_remainder_s": (wall - layer_self, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    return {
        "tally": tally,
        "metrics": metrics,
        "notes": [f"traced pass: {len(traced)} operations, {traced_s:.3f} s of calls traced "
                  f"vs {untraced_s:.3f} s untraced, {wall:.3f} s wall; "
                  f"{len(tracer.spans)} spans kept, {len(tracer.aggregates)} folded groups"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True, help="directory holding the inputs")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--probe", action="store_true", help="measure set-up only")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    directory = Path(args.dir)
    entries = json.loads((directory / "setup.json").read_text(encoding="utf-8"))
    setup_s = measure_setup(entries)
    host = HostSpeed()
    host.sample(repeats=5)
    import ncmart
    if Path(ncmart.__file__).resolve().parent != ROOT / "src" / "ncmart":
        print(f"bench: imported ncmart from {ncmart.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    out = {"setup_s": setup_s / host.factor(), "setup_raw_s": setup_s}
    if not args.probe:
        workload = WORKLOADS[args.workload]
        run = run_traced(workload, args.seed, directory) if args.trace \
            else run_timed(workload, args.seed, args.seconds, directory)
        tally = run.pop("tally")
        out.update(run, attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
                   provenance=provenance.collect(ROOT))
    Path(args.result).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
