"""Summarize untraced benchmark runs into ``BENCH_<label>.json``.

Reads every ``.bench_out/<workload>-seed<S>-trace0/`` that ``bench/run.py``
left in a checkout and writes, per workload and end-to-end metric, the
median, the quartiles and the per-seed values, with the seeds and the
provenance of the runs.  Run the benchmark for several seeds first:

    for s in 0 1 2 3 4 5 6 7 8 9; do
        python3 bench/run.py --workload ratio-sweep --seed $s --seconds 20 --trace 0
    done
    python scripts/bench_snapshot.py after

``--from DIR`` reads the runs of another checkout (say, the parent commit
unpacked next to this one) and still writes into this repository's root:

    python scripts/bench_snapshot.py before --from ../parent

The runs must all name one provenance ``git_commit``: runs of another tree
left in ``.bench_out/`` would mix into the medians, so the script then
lists the commits and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_DIR = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), the inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def collect(checkout: Path) -> dict:
    """Per workload: per seed, the metrics and the provenance of the run."""
    runs: dict[str, dict[int, dict]] = {}
    for directory in sorted((checkout / ".bench_out").glob("*-trace0")):
        match = RUN_DIR.fullmatch(directory.name)
        metrics, result = directory / "metrics.json", directory / "result.json"
        if not (match and metrics.is_file()):
            continue
        provenance = (json.loads(result.read_text(encoding="utf-8")).get("provenance")
                      if result.is_file() else None)
        runs.setdefault(match["workload"], {})[int(match["seed"])] = {
            "metrics": json.loads(metrics.read_text(encoding="utf-8")),
            "provenance": provenance,
        }
    return runs


def snapshot(label: str, runs: dict) -> dict:
    workloads = {}
    for workload, by_seed in sorted(runs.items()):
        seeds = sorted(by_seed)
        names = sorted(set().union(*(by_seed[s]["metrics"] for s in seeds)))
        metrics = {}
        for name in names:
            pairs = [(s, by_seed[s]["metrics"][name]) for s in seeds
                     if name in by_seed[s]["metrics"]]
            values = [value for _, (value, _) in pairs]
            q1, median, q3 = quartiles(values)
            metrics[name] = {"unit": pairs[0][1][1], "median": median, "q1": q1, "q3": q3,
                             "seeds": [s for s, _ in pairs], "values": values}
        provenance = []
        for s in seeds:
            if by_seed[s]["provenance"] not in provenance:
                provenance.append(by_seed[s]["provenance"])
        workloads[workload] = {"seeds": seeds, "metrics": metrics, "provenance": provenance}
    return {"label": label, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--from", dest="checkout", type=Path, default=ROOT,
                        help="checkout whose .bench_out/ holds the runs (default: this one)")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        print("bench_snapshot: a label is letters, digits, '_', '.' and '-'", file=sys.stderr)
        return 2
    runs = collect(args.checkout)
    if not runs:
        print(f"bench_snapshot: no untraced runs under {args.checkout / '.bench_out'}",
              file=sys.stderr)
        return 1
    commits = sorted({run["provenance"]["git_commit"] for by_seed in runs.values()
                      for run in by_seed.values()
                      if run["provenance"] and "git_commit" in run["provenance"]})
    if len(commits) > 1:
        print("bench_snapshot: the runs come from more than one commit; rerun them "
              "from one tree:\n" + "\n".join(f"  {c}" for c in commits), file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snapshot(args.label, runs), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}: " + ", ".join(
        f"{w} ({len(r)} seeds)" for w, r in sorted(runs.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
