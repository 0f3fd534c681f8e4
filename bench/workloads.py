"""Workload definitions: inputs made from a seed, operations, output checks.

An *operation* is one call into ncmart's public entry points: one
``ncmart.harness.cli.main([...])`` call for the four commands, or one
element swept over 50 Chebyshev thresholds for the library sweep.  An
*instance* is one seeded terminal element with everything the call does
for it.

Inputs depend only on the workload and the seed.  Operation sizes are
fixed per structure so that every operation of a workload costs about the
same; the median call time then does not depend on where a run stops.
This module imports ncmart lazily, inside the functions that call it.
The inputs are built here with NumPy alone (the structures' bases and
their JSON encoding repeat what ncmart does), so that a change to the
program cannot change the inputs it is measured on.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Seed whose first operations are compared with bench/reference/<workload>.json.
DEFAULT_SEED = 0

# Relative tolerance for reference numbers; the repo's identity tolerances
# are 1e-10 to 1e-9, applied here as |got - ref| <= REF_TOL * max(1, |ref|).
REF_TOL = 1e-9

CHEBYSHEV_THRESHOLDS = 50
CHEBYSHEV_DIMS = (2, 3, 4, 5, 6, 7, 8)


# -- the eight identity-suite structures -----------------------------------

def _unit(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def _spanning_basis(dims, desc) -> list[list[np.ndarray]]:
    """Canonical basis of a closed-form level, one list of blocks per element."""
    def single(b, mat):
        blocks = [np.zeros((n, n), dtype=complex) for n in dims]
        blocks[b] = mat
        return blocks

    if desc["kind"] == "scalars":
        return [[np.eye(n, dtype=complex) for n in dims]]
    out = []
    for b, (n, groups) in enumerate(zip(dims, desc["groups"])):
        for g in groups:
            if desc["kind"] == "block_scalar":
                out.append(single(b, sum(_unit(n, i, i) for i in g)))
            else:
                out.extend(single(b, _unit(n, i, j)) for i in g for j in g)
    return out


def _encode(m: np.ndarray) -> dict:
    out = {"real": np.real(m).tolist()}
    if np.any(np.imag(m) != 0):
        out["imag"] = np.imag(m).tolist()
    return out


def _general(basis) -> dict:
    return {"kind": "general", "basis": [[_encode(m) for m in elem] for elem in basis]}


def _scalars() -> dict:
    return {"kind": "scalars"}


def _bs(*groups) -> dict:
    return {"kind": "block_scalar", "groups": list(groups)}


def _bf(*groups) -> dict:
    return {"kind": "block_full", "groups": list(groups)}


def _conjugated(dims, levels, rng: np.random.Generator) -> list[dict]:
    """Every level rebuilt as a general level conjugated by one random unitary."""
    us = []
    for n in dims:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        us.append(q)
    out = []
    for desc in levels:
        basis = [[u @ m @ u.conj().T for u, m in zip(us, elem)]
                 for elem in _spanning_basis(dims, desc)]
        out.append(_general(basis))
    return out


# Instances per call for (verify, refine), sized so one call takes about
# 0.23 s of host-scaled time on a 2-core Xeon (Python 3.11, NumPy 2.4,
# OpenBLAS 0.3.31), with tens of instances on every structure.
IDENTITY_STRUCTURES = {
    "m2-2lv": (69, 416),
    "m2-3lv": (47, 219),
    "m4-7lv": (15, 56),
    "m4-general-4lv": (29, 122),
    "m2m3-4lv": (23, 91),
    "m2m3-6lv": (13, 48),
    "m8-8lv": (10, 40),
    "m8-3lv": (42, 176),
}


def identity_structures(rng: np.random.Generator) -> dict[str, dict]:
    """Configs for the eight structures of acceptance criterion 1.

    They span M_2, M_4, M_2 (+) M_3 and M_8 with 2 to 8 levels and all four
    level kinds; ``m4-general-4lv`` is an all-general chain conjugated by a
    unitary drawn from ``rng``.
    """
    m4_base = [_scalars(), _bs([[0, 1], [2, 3]]), _bf([[0, 1], [2, 3]]),
               _bf([[0, 1, 2, 3]])]
    half = _bf([[0, 1, 2, 3], [4, 5, 6, 7]])
    mid23 = _bf([[0], [1]], [[0, 1], [2]])
    structures = {
        "m2-2lv": ([2], [1.0], [_scalars(), _bf([[0, 1]])]),
        "m2-3lv": ([2], [1.0], [_scalars(), _bf([[0], [1]]), _bf([[0, 1]])]),
        "m4-7lv": ([4], [1.0], [
            _scalars(), _bs([[0, 1], [2, 3]]), _bs([[0], [1], [2, 3]]),
            _bs([[0], [1], [2], [3]]), _bf([[0, 1], [2], [3]]),
            _bf([[0, 1], [2, 3]]), _bf([[0, 1, 2, 3]])]),
        "m4-general-4lv": ([4], [1.0], _conjugated([4], m4_base, rng)),
        "m2m3-4lv": ([2, 3], [0.4, 0.6], [
            _scalars(), _bs([[0, 1]], [[0, 1, 2]]), mid23, _bf([[0, 1]], [[0, 1, 2]])]),
        "m2m3-6lv": ([2, 3], [0.4, 0.6], [
            _scalars(), _bs([[0, 1]], [[0, 1, 2]]), _bs([[0], [1]], [[0, 1, 2]]),
            _bf([[0], [1]], [[0], [1], [2]]), _general(_spanning_basis([2, 3], mid23)),
            _bf([[0, 1]], [[0, 1, 2]])]),
        "m8-8lv": ([8], [1.0], [
            _scalars(), _bs([[0, 1, 2, 3], [4, 5, 6, 7]]),
            _bs([[0, 1], [2, 3], [4, 5, 6, 7]]), _bs([[0, 1], [2, 3], [4, 5], [6, 7]]),
            _bf([[0, 1], [2, 3], [4, 5], [6, 7]]), _bf([[0, 1], [2, 3], [4, 5, 6, 7]]),
            _general(_spanning_basis([8], half)), _bf([[0, 1, 2, 3, 4, 5, 6, 7]])]),
        "m8-3lv": ([8], [1.0], [_scalars(), half, _bf([[0, 1, 2, 3, 4, 5, 6, 7]])]),
    }
    out = {}
    for name, (dims, weights, levels) in structures.items():
        out[name] = {
            "spec_version": 1,
            "algebra": {"block_dims": dims, "block_weights": weights},
            "times": [float(t) for t in range(len(levels))],
            "levels": levels,
            "seed": 0,
            "instances": 1,
            "partition_chain": "midpoint",
        }
    return out


# -- operations ------------------------------------------------------------

@dataclass
class Outcome:
    """What one checked operation produced."""
    instances: int
    digest: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class Operation:
    """One call into ncmart plus the check of what it produced.

    ``inputs`` describes what the call receives (its argument list, or the
    element's size and seed).  ``prepare`` runs untimed before the call;
    ``call`` is the timed part; ``check`` runs untimed after it and returns
    an :class:`Outcome`.
    """
    label: str
    instances: int
    inputs: tuple
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    prepare: Callable[[], None] = lambda: None


def _child_seeds(seed: int, n: int, salt: int) -> list[int]:
    seq = np.random.SeedSequence([seed, salt])
    return [int(s) for s in seq.generate_state(n, dtype=np.uint32)]


def _cli_operation(label: str, argv: list[str], instances: int, out_path: Path,
                   digest_fn: Callable[[dict], dict]) -> Operation:
    def call():
        from ncmart.harness.cli import main
        return main(argv + ["--out", str(out_path)])

    def check(code) -> Outcome:
        if code != 0:
            return Outcome(instances, error=f"{label}: exit code {code}")
        report = json.loads(out_path.read_text(encoding="utf-8"))
        failed = [r for r in report["records"] if not r["passed"]]
        if failed:
            r = failed[0]
            return Outcome(instances, error=f"{label}: {len(failed)} failed records, "
                                            f"first {r['check']} = {r['residual']:.3e}")
        return Outcome(instances, digest_fn(report))

    return Operation(label, instances, tuple(argv), call, check)


def _verify_digest(report: dict) -> dict:
    checks = report["summary"]["checks"]
    return {"records": len(report["records"]),
            "checks": {k: [v["count"], v["max_residual"]] for k, v in sorted(checks.items())}}


def _refine_digest(report: dict) -> dict:
    rows = report["tables"]["refinement"]
    seg = report["summary"]["segal_modulus"]
    return {"rows": len(rows),
            "decay_sum": math.fsum(r["decay"] for r in rows),
            "gap_sum": math.fsum(r["naturality_gap"] for r in rows),
            "integrand_bound_sum": math.fsum(report["summary"]["integrand_bound"].values()),
            "segal_last_sum": math.fsum(v[-1][1] for v in seg.values())}


def _ratios_digest(report: dict) -> dict:
    stats = {f"{s['ratio_kind']}@{s['p']:g}": [s["instance_count"], s["mean"], s["max"],
                                               s["q50"], s["q90"]]
             for s in report["summary"]["ratio_statistics"]}
    return {"rows": len(report["tables"]["ratios"]), "stats": stats}


def _kolmogorov_digest(report: dict) -> dict:
    rows = report["certificates"]
    slack = report["summary"]["bound_slack"]
    return {"rows": len(rows), "slack": [slack["count"], slack["min"], slack["mean"]],
            "trace_defect_sum": math.fsum(r["trace_defect"] for r in rows),
            "projection_trace_sum": math.fsum(r["projection_trace"] for r in rows),
            "sup_slack_min": min(r["sup_slack"] for r in rows)}


def _chebyshev_operation(dim: int, seed: int) -> Operation:
    state: dict = {}

    def prepare():
        if "x" in state:
            return
        import ncmart as nc
        alg = nc.TracialAlgebra([dim])
        rng = np.random.Generator(np.random.Philox(seed))
        state["x"] = nc.random_element(alg, rng, "positive")

    def call():
        import ncmart as nc
        x = state.pop("x")
        top = nc.lp_norm(x, math.inf)
        certs = [nc.chebyshev_projection(x, float(eta))
                 for eta in np.linspace(top / 50.0, 1.05 * top, CHEBYSHEV_THRESHOLDS)]
        return top, certs

    def check(result) -> Outcome:
        top, certs = result
        bad = sum((c.trace_value > c.trace_bound + 1e-10) + (c.tail_norm > c.eta + 1e-10)
                  for c in certs)
        if bad:
            return Outcome(1, error=f"chebyshev M_{dim}: {bad} bound violations")
        return Outcome(1, {"dim": dim, "top": top,
                           "trace_value_sum": math.fsum(c.trace_value for c in certs),
                           "trace_bound_sum": math.fsum(c.trace_bound for c in certs),
                           "tail_norm_max": max(c.tail_norm for c in certs)})

    return Operation(f"chebyshev M_{dim}", 1, (dim, seed), call, check, prepare)


# -- workloads ---------------------------------------------------------------

# Instances per call, sized to about 0.32 s of host-scaled time per call.
RATIO_CALLS = (("m4-random", 280), ("m2m3-random", 270))
KOLMOGOROV_CALLS = (("m4-random", 160), ("m2m3-random", 140))


@dataclass(frozen=True)
class Workload:
    """A named workload; BENCHMARK.json and bench/README.md say why each exists.

    ``write_inputs(seed, dir)`` writes any config files and returns the
    set-up list: ``("file", path)``, ``("preset", name)`` or ``("algebra",
    n)`` entries whose first build is set-up cost.  ``cycle(seed, dir, k)``
    returns the operations of cycle ``k``, which visit every structure once.
    Runs stop only between cycles, so every run has the same mix.  A traced
    run makes the first ``trace_cycles`` cycles.
    """
    name: str
    write_inputs: Callable[[int, Path], list]
    cycle: Callable[[int, Path, int], list[Operation]]
    trace_cycles: int

    def cycles(self, seed: int, directory: Path) -> Iterator[list[Operation]]:
        for k in itertools.count():
            yield self.cycle(seed, directory, k)

    def first_operations(self, seed: int, directory: Path) -> list[Operation]:
        """The operations of a traced run, also those the reference covers."""
        return [op for k in range(self.trace_cycles) for op in self.cycle(seed, directory, k)]


def _cycle_seeds(seed: int, cycle: int, n: int) -> list[int]:
    return _child_seeds(seed, n, 1000 + cycle)


def _identity_inputs(seed: int, directory: Path) -> list:
    rng = np.random.Generator(np.random.Philox(_child_seeds(seed, 1, 0)[0]))
    setup = []
    for name, cfg in identity_structures(rng).items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        setup.append(("file", str(path)))
    return setup


def _identity_cycle(seed: int, directory: Path, cycle: int) -> list[Operation]:
    out = directory / "op-report.json"
    seeds = iter(_cycle_seeds(seed, cycle, 2 * len(IDENTITY_STRUCTURES)))
    ops = []
    for name, (verify_n, refine_n) in IDENTITY_STRUCTURES.items():
        cfg = str(directory / f"{name}.json")
        for command, n, digest_fn in (("verify", verify_n, _verify_digest),
                                      ("refine", refine_n, _refine_digest)):
            ops.append(_cli_operation(
                f"{command} {name}", [command, "--config", cfg, "--seed", str(next(seeds)),
                                      "--instances", str(n)],
                n, out, digest_fn))
    return ops


def _preset_inputs(calls):
    def write_inputs(seed: int, directory: Path) -> list:
        return [("preset", name) for name, _ in calls]
    return write_inputs


def _preset_cycle(command: str, calls, extra: list[str], digest_fn):
    def cycle_ops(seed: int, directory: Path, cycle: int) -> list[Operation]:
        out = directory / "op-report.json"
        seeds = _cycle_seeds(seed, cycle, len(calls))
        return [_cli_operation(f"{command} {preset}",
                               [command, "--preset", preset, "--seed", str(s),
                                "--instances", str(n)] + extra,
                               n, out, digest_fn)
                for (preset, n), s in zip(calls, seeds)]
    return cycle_ops


def _chebyshev_inputs(seed: int, directory: Path) -> list:
    return [("algebra", n) for n in CHEBYSHEV_DIMS]


def _chebyshev_cycle(seed: int, directory: Path, cycle: int) -> list[Operation]:
    seeds = _cycle_seeds(seed, cycle, len(CHEBYSHEV_DIMS))
    return [_chebyshev_operation(dim, s) for dim, s in zip(CHEBYSHEV_DIMS, seeds)]


WORKLOADS = {w.name: w for w in (
    Workload("identity-suite", _identity_inputs, _identity_cycle, trace_cycles=1),
    Workload("ratio-sweep", _preset_inputs(RATIO_CALLS),
             _preset_cycle("ratios", RATIO_CALLS, ["--p", "3,4,8"], _ratios_digest),
             trace_cycles=2),
    Workload("kolmogorov-sweep", _preset_inputs(KOLMOGOROV_CALLS),
             _preset_cycle("kolmogorov", KOLMOGOROV_CALLS, [], _kolmogorov_digest),
             trace_cycles=2),
    Workload("chebyshev-sweep", _chebyshev_inputs, _chebyshev_cycle, trace_cycles=20),
)}


# -- reference comparison ----------------------------------------------------

def compare_digest(got, ref, path: str = "") -> str | None:
    """First difference between a digest and its reference, or None.

    Numbers agree when ``|got - ref| <= REF_TOL * max(1, |ref|)``; a
    reference of the wrong shape is a difference, never an exception.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return f"{path or 'digest'}: keys differ from the reference"
        for key in sorted(ref):
            diff = compare_digest(got[key], ref[key], f"{path}.{key}" if path else key)
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: length differs from the reference"
        for i, (g, r) in enumerate(zip(got, ref)):
            diff = compare_digest(g, r, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, bool) or not isinstance(ref, (int, float)) \
            or isinstance(got, bool) or not isinstance(got, (int, float)):
        return None if got == ref else f"{path}: {got!r} != reference {ref!r}"
    if not abs(got - ref) <= REF_TOL * max(1.0, abs(ref)):
        return f"{path}: {got!r} differs from reference {ref!r}"
    return None


def reference_path(workload: str) -> Path:
    return Path(__file__).resolve().parent / "reference" / f"{workload}.json"


def load_reference(path: Path) -> list:
    """The stored digests of the default seed's first operations.

    A missing or unreadable file yields an empty list, which the caller
    counts as a failure on the default seed rather than crashing.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    ops = data.get("operations") if isinstance(data, dict) else None
    return ops if isinstance(ops, list) else []
