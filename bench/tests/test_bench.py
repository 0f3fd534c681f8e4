"""Tests of the benchmark itself: tracing, self time, inputs, reference checks.

Run with ``python -m pytest -q bench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import ncmart  # noqa: E402
import tracer as tr  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
import workloads as wl  # noqa: E402
from ncmart.harness import commands  # noqa: E402
from ncmart.harness.config import load_config, preset  # noqa: E402
from worker import (Tally, reference_error, run_operation, summarize_calls,  # noqa: E402
                    tail_latency)


# -- tracing leaves the program's results alone -----------------------------

def _payloads() -> dict[str, str]:
    configs = {"m4": preset("m4-random"), "m2m3": preset("m2m3-random")}
    structures = wl.identity_structures(np.random.Generator(np.random.Philox(5)))
    configs["m2m3-6lv"] = structures["m2m3-6lv"]
    configs["m4-general"] = structures["m4-general-4lv"]
    out = {}
    for key, data in configs.items():
        data = dict(data, instances=2, seed=3)
        cfg = load_config(data)
        for name in ("verify", "ratios", "kolmogorov", "refine"):
            # through the command table, as the CLI calls them
            report = commands.COMMANDS[name](cfg)
            out[f"{name} {key}"] = json.dumps(report.numeric_payload())
    x = ncmart.random_element(ncmart.TracialAlgebra([5]), 9, "positive")
    cert = ncmart.chebyshev_projection(x, 0.7)
    out["chebyshev"] = json.dumps([cert.trace_value, cert.trace_bound, cert.tail_norm])
    return out


def test_tracing_leaves_numeric_payloads_byte_identical():
    original = ncmart.algebra.lp_norm
    untraced = _payloads()
    tracer = tr.Tracer()
    with tr.installed(tracer):
        assert ncmart.algebra.lp_norm is not original
        with tracer.operation(0):
            traced = _payloads()
    assert ncmart.algebra.lp_norm is original
    assert traced == untraced
    totals = tracer.layer_totals()
    for layer in ("algebra.element_init", "conditional.expect.general",
                  "harness.commands.cmd_verify", "inequalities.chebyshev_projection",
                  "numpy.linalg.svd", "harness.config.build_filtration"):
        assert totals[layer][0] > 0, layer
    assert tracer.counts[tr.RECORDS] > 0


def test_traced_counts_repeat_exactly():
    def counts():
        tracer = tr.Tracer()
        with tr.installed(tracer), tracer.operation(0):
            _payloads()
        return {name: c for name, (c, _) in tracer.layer_totals().items()}

    assert counts() == counts()


def test_benchmark_json_declares_every_metric_and_workload():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in declared["per_layer"]] == tr.per_layer_metric_names()
    assert {w["name"] for w in declared["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"] for m in declared["end_to_end"]} == {
        "instances_per_s", "call_p50_ms", "call_tail_ms", "setup_s", "peak_rss_mb",
        "ok_ratio"}


# -- self time ----------------------------------------------------------------

def test_self_times_on_synthetic_span_tree():
    S = tr.Span
    spans = [
        S(0, 0, None, "root", 0.0, 10.0, 0.0),
        S(0, 1, 0, "a", 1.0, 4.0, 0.0),       # overlaps b: children cover [1, 6]
        S(0, 2, 0, "b", 3.0, 6.0, 0.5),       # 0.5 s in folded children
        S(0, 3, 1, "leaf", 2.0, 3.0, 0.0),
        S(0, 4, 0, "late", 9.0, 12.0, 0.0),   # clipped to [9, 10]
        S(1, 5, None, "root", 20.0, 21.0, 0.25),
    ]
    got = tr.self_times(spans)
    assert got == pytest.approx({0: 4.0, 1: 2.0, 2: 2.5, 3: 1.0, 4: 3.0, 5: 0.75})


def test_tracer_folds_hot_spans_and_keeps_self_time():
    ticks = iter(range(100))
    tracer = tr.Tracer(clock=lambda: float(next(ticks)))
    with tracer.operation(7):                          # t=0 .. 9
        tracer.enter("harness.commands.cmd_verify")    # t=1 .. 8
        tracer.enter("algebra.arith")                  # t=2 .. 5, folded
        tracer.enter("algebra.element_init")           # t=3 .. 4, folded
        tracer.leave()
        tracer.leave()
        tracer.enter("algebra.arith")                  # t=6 .. 7, folded
        tracer.leave()
        tracer.leave()
    assert [(s.name, s.op) for s in tracer.spans] == [
        ("harness.commands.cmd_verify", 7), (tr.ROOT, 7)]
    totals = tracer.layer_totals()
    assert totals["harness.commands.cmd_verify"] == (1, 3.0)
    assert totals["algebra.arith"] == (2, 3.0)
    assert totals["algebra.element_init"] == (1, 1.0)
    assert totals[tr.ROOT] == (1, 2.0)
    assert sum(s for _, s in totals.values()) == 9.0


def test_tail_latency_leaves_ten_operations_beyond():
    value, pct, n = tail_latency([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_timing_metrics_leave_failed_calls_out_of_latency():
    calls = [(10, 0.3, True), (4, 0.1, True), (10, 0.01, False), (10, 0.2, True)]
    metrics, note = summarize_calls(calls)
    assert metrics["instances_per_s"][0] == pytest.approx(24 / 0.61)
    assert metrics["call_p50_ms"][0] == pytest.approx(200.0)
    assert metrics["call_tail_ms"][0] == pytest.approx(300.0)
    assert note == "call_tail_ms is p100.0 of 3 operations"


def test_host_factor_uses_the_samples_around_a_call():
    host = HostSpeed()
    host.points = [(0.0, [0.010]), (1.0, [0.030, 0.020, 0.040]), (2.0, [0.015])]
    # samples of the points at 1.0 and 2.0: 0.015, 0.020, 0.030, 0.040
    assert host.factor(1.2, 1.8) == pytest.approx(0.025 / REFERENCE_S)
    # points at 0.0 and 1.0: 0.010, 0.020, 0.030, 0.040
    assert host.factor(0.0, 0.5) == pytest.approx(0.025 / REFERENCE_S)
    assert host.factor(2.5, 3.0) == pytest.approx(0.015 / REFERENCE_S)  # no point after
    assert host.factor() == pytest.approx(0.020 / REFERENCE_S)


# -- workload inputs ----------------------------------------------------------

def _inputs(workload: str, seed: int, directory: Path) -> tuple:
    w = wl.WORKLOADS[workload]
    directory.mkdir()
    setup = w.write_inputs(seed, directory)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    ops = [(op.label, op.instances, json.dumps(op.inputs).replace(str(directory), "<dir>"))
           for k in range(2) for op in w.cycle(seed, directory, k)]
    return len(setup), files, ops


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(workload, tmp_path):
    a = _inputs(workload, 4, tmp_path / "a")
    b = _inputs(workload, 4, tmp_path / "b")
    c = _inputs(workload, 5, tmp_path / "c")
    assert a == b
    assert a[2] != c[2]
    if workload == "identity-suite":
        assert a[1]["m4-general-4lv.json"] != c[1]["m4-general-4lv.json"]
        assert len(a[1]) == 8


def test_identity_structures_cover_all_level_kinds():
    structures = wl.identity_structures(np.random.Generator(np.random.Philox(0)))
    kinds = {lv["kind"] for cfg in structures.values() for lv in cfg["levels"]}
    assert kinds == {"scalars", "block_scalar", "block_full", "general"}
    assert {len(cfg["levels"]) for cfg in structures.values()} == {2, 3, 4, 6, 7, 8}
    for name, cfg in structures.items():
        load_config(cfg)  # builds and validates the filtration


# -- reference checks -----------------------------------------------------------

def _first_outcome(workload: str, directory: Path):
    w = wl.WORKLOADS[workload]
    w.write_inputs(wl.DEFAULT_SEED, directory)
    op = w.cycle(wl.DEFAULT_SEED, directory, 0)[0]
    outcome, _ = run_operation(op)
    assert outcome.error is None
    return outcome


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_stored_reference_matches_the_program(workload, tmp_path):
    reference = wl.load_reference(wl.reference_path(workload))
    assert reference
    assert reference_error(0, _first_outcome(workload, tmp_path), reference) is None


@pytest.mark.parametrize("corrupt", [
    lambda ref: [{**ref[0], "top": ref[0]["top"] * (1 + 1e-6)}],   # a number moved
    lambda ref: [{k: v for k, v in ref[0].items() if k != "top"}],  # a key missing
    lambda ref: [{**ref[0], "top": "not a number"}],                # wrong type
    lambda ref: ["garbage"],                                         # wrong shape
    lambda ref: [],                                                  # no reference
])
def test_corrupted_reference_is_a_counted_failure(corrupt, tmp_path):
    reference = wl.load_reference(wl.reference_path("chebyshev-sweep"))
    outcome = _first_outcome("chebyshev-sweep", tmp_path)
    tally = Tally()
    tally.add(outcome, reference_error(0, outcome, corrupt(reference)))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.errors and "reference" in tally.errors[0]


def test_unreadable_reference_file_loads_as_empty(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert wl.load_reference(bad) == []
    bad.write_text(json.dumps({"operations": "x"}), encoding="utf-8")
    assert wl.load_reference(bad) == []
    assert wl.load_reference(tmp_path / "missing.json") == []


def test_failing_operations_are_counted_not_raised(tmp_path):
    def boom():
        raise ncmart.IdentityViolation("synthetic")

    out = tmp_path / "report.json"
    ops = [
        wl.Operation("boom", 3, (), boom, lambda result: wl.Outcome(3)),
        wl._cli_operation("bad preset", ["verify", "--preset", "no-such"], 2, out,
                          wl._verify_digest),
        wl._cli_operation("bad flag", ["verify", "--no-such-flag"], 2, out,
                          wl._verify_digest),
    ]
    tally = Tally()
    for op in ops:
        outcome, seconds = run_operation(op)
        assert outcome.error and seconds >= 0.0
        tally.add(outcome)
    assert (tally.attempted, tally.failed, tally.instances) == (3, 3, 0)
    assert "IdentityViolation" in tally.errors[0]
    assert "exit code 2" in tally.errors[1]
    assert "SystemExit" in tally.errors[2]


def test_failed_check_record_is_a_failure(tmp_path):
    out = tmp_path / "report.json"
    op = wl._cli_operation("verify", ["verify", "--preset", "m2-worked-example"], 1, out,
                           wl._verify_digest)
    outcome, _ = run_operation(op)
    assert outcome.error is None
    report = json.loads(out.read_text(encoding="utf-8"))
    report["records"][0]["passed"] = False
    out.write_text(json.dumps(report), encoding="utf-8")
    failed = op.check(0)
    assert failed.error and "1 failed records" in failed.error
