"""Acceptance suite: one test per contract criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The identity sweep (criterion 1) is shared with the
decomposition and gap criteria so the 500+ instances are computed once.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import ncmart as nc
from ncmart.harness import cmd_ratios, cmd_refine, cmd_verify, load_config, preset
from ncmart.harness.checks import by_instance, identity_rows, partner_draws
from conftest import build_pool, centered_terminal

INSTANCES_PER_COMBO = 63  # 8 combos -> 504 instances >= 500


@contextmanager
def criterion(num, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def identity_run():
    """>= 500 seeded instances of the full identity suite across the pool."""
    pool = build_pool()
    records = []
    t0 = time.perf_counter()
    instance = 0
    for combo_index, (name, filt) in enumerate(pool):
        # each instance draws its terminal, partner and second terminal from its stream
        rngs = nc.spawn_generators(1000 + combo_index, INSTANCES_PER_COMBO)
        x_term = nc.random_stack(filt.algebra, rngs)
        rows = identity_rows(filt, x_term, *partner_draws(filt.algebra, rngs))
        records += by_instance(rows, list(range(instance, instance + len(rngs)))).records()
        instance += len(rngs)
    elapsed = time.perf_counter() - t0
    return {"records": records, "instances": instance, "elapsed": elapsed, "pool": pool}


CRITERION_1_CHECKS = (
    "trace_duality",           # conditional-expectation trace duality
    "increment_projection",    # conditioned square-increment identity
    "increment_energy",        # telescoping trace identity
    "tower_property",
    "module_property",
    "refinement_invariance",
    "bracket_equals_qv",
    "cross_expansion",
    "cross_polarization",
    "naturality_pairing",
    "gap_orthogonality",
    "uniqueness_residual",
)


def test_criterion_1_exact_identity_suite(identity_run):
    with criterion(1, "exact-identity suite, >=500 instances, <=60s"):
        assert identity_run["instances"] >= 500
        by_check = {}
        for r in identity_run["records"]:
            by_check.setdefault(r.check, []).append(r)
        for check in CRITERION_1_CHECKS:
            assert check in by_check, f"missing check {check}"
            worst = max(r.residual for r in by_check[check])
            assert worst <= 1e-9, f"{check}: worst residual {worst:.3e}"
        failures = [r for r in identity_run["records"] if not r.passed]
        assert not failures, failures[:5]
        assert identity_run["elapsed"] <= 60.0, f"took {identity_run['elapsed']:.1f}s"


def test_criterion_2_engine_equivalence(identity_run):
    with criterion(2, "closed forms vs Gram engine, 200 instances per kind"):
        by_kind = {"scalars": [], "block_scalar": [], "block_full": []}
        for _, filt in identity_run["pool"]:
            for level in filt.levels:
                if level.kind in by_kind and level not in by_kind[level.kind]:
                    by_kind[level.kind].append(level)
        for kind, levels in by_kind.items():
            assert levels, f"no {kind} levels in the pool"
            twins = [lv.as_general() for lv in levels]
            rngs = nc.spawn_generators(2000, 200)
            for i, rng in enumerate(rngs):
                lv, twin = levels[i % len(levels)], twins[i % len(levels)]
                x = nc.random_element(lv.algebra, rng)
                gap = nc.lp_norm(lv.expect(x) - twin.expect(x), 2)
                assert gap <= 1e-10, f"{kind}: engines disagree by {gap:.3e}"


def test_criterion_3_p2_burkholder_identity(identity_run):
    with criterion(3, "p=2 square-function identity and ratio bound"):
        count = 0
        for combo_index, (name, filt) in enumerate(identity_run["pool"]):
            for rng in nc.spawn_generators(3000 + combo_index, 15):
                x = nc.martingale_from_terminal(
                    filt, centered_terminal(filt.algebra, rng))
                assert nc.lp_norm(x.values[0], 2) <= 1e-12  # X(0) = 0 by centering
                grid = nc.full_partition(x)
                square = filt.algebra.zero()
                for dx in nc.increments(x, grid):
                    square = square + nc.abs2(dx)
                num_sq = nc.lp_norm(nc.psd_sqrt(square), 2) ** 2
                want = nc.lp_norm(x.values[-1], 2) ** 2
                assert abs(num_sq - want) <= 1e-10, name
                assert nc.bg_ratio(x, grid, 2.0) <= 1.0 + 1e-9, name
                count += 1
        assert count == 8 * 15


def test_criterion_4_kolmogorov_certificates(identity_run):
    with criterion(4, "projection certificates, 500 instances, both sides"):
        pool = identity_run["pool"]
        count = 0
        for combo_index, (name, filt) in enumerate(pool):
            for rng in nc.spawn_generators(4000 + combo_index, INSTANCES_PER_COMBO):
                x = nc.martingale_from_terminal(
                    filt, nc.random_element(filt.algebra, rng))
                eps = nc.epsilon_from_percentile(x, 30.0)
                for side in ("left", "right"):
                    cert = nc.kolmogorov_projection(x, eps, side)
                    assert cert.trace_defect <= cert.trace_bound + 1e-10, name
                    assert max(cert.sup_norms) <= eps + 1e-9, name
                    for a, b in zip(cert.meets, cert.meets[1:]):
                        lam = nc.min_eigenvalue(a.element - b.element, tol=1e-8)
                        assert lam >= -1e-9, f"{name}: chain defect {lam:.3e}"
                count += 1
        assert count >= 500


def test_criterion_5_chebyshev_sweep():
    with criterion(5, "noncommutative Chebyshev, 1000 elements x 50 thresholds"):
        violations = 0
        rngs = nc.spawn_generators(5000, 1000)
        for i, rng in enumerate(rngs):
            alg = nc.TracialAlgebra([2 + (i % 7)])  # M_2 .. M_8
            x = nc.random_element(alg, rng, "positive")
            top = nc.lp_norm(x, math.inf)
            for eta in np.linspace(top / 50.0, 1.05 * top, 50):
                cert = nc.chebyshev_projection(x, float(eta))
                if cert.trace_value > cert.trace_bound + 1e-10:
                    violations += 1
                if cert.tail_norm > eta + 1e-10:
                    violations += 1
        assert violations == 0


def test_criterion_6_decomposition_validity(identity_run):
    with criterion(6, "Doob-Meyer validity, both variants, all instances"):
        wanted = ("dm_reconstruction_predictable", "dm_reconstruction_bracket",
                  "dm_martingale_part_predictable", "dm_martingale_part_bracket",
                  "dm_increasing_predictable", "dm_increasing_bracket",
                  "dm_initial_predictable", "dm_initial_bracket",
                  "dm_predictable", "submartingale_loewner")
        seen = {w: 0 for w in wanted}
        for r in identity_run["records"]:
            if r.check in seen:
                seen[r.check] += 1
                assert r.passed, f"{r.check} instance {r.instance}: {r.residual:.3e}"
        assert all(n >= identity_run["instances"] for n in seen.values()), seen


def test_criterion_7_gap_diagnostics(identity_run):
    with criterion(7, "gap orthogonality, fourth-moment bound, terminal refinement"):
        for r in identity_run["records"]:
            if r.check == "gap_orthogonality":
                assert r.residual <= 1e-9, f"instance {r.instance}: {r.residual:.3e}"
            if r.check == "gap_fourth_moment":
                assert r.residual <= 1e-9, f"instance {r.instance}: {r.residual:.3e}"
        for name in ("m4-random", "m2m3-random"):
            report = cmd_refine(load_config(preset(name)))
            terminal = [r for r in report.records if r.check == "terminal_refinement"]
            assert terminal and all(r.residual <= 1e-12 for r in terminal), name


def test_criterion_8_determinism():
    with criterion(8, "byte-identical numeric payloads for repeated runs"):
        data = preset("m4-random")
        data["instances"] = 8
        cfg = load_config(data)
        a = json.dumps(cmd_verify(cfg).numeric_payload())
        b = json.dumps(cmd_verify(cfg).numeric_payload())
        assert a == b


def test_criterion_9_ratio_sweeps():
    with criterion(9, "ratio sweeps, 1000 instances, p in {3,4,8}, <=120s"):
        data = preset("m4-random")
        data["instances"] = 1000
        data["p_values"] = [3.0, 4.0, 8.0]
        cfg = load_config(data)
        t0 = time.perf_counter()
        report = cmd_ratios(cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"
        rows = report.tables["ratios"]
        assert len(rows) == 3000
        assert report.summary["all_finite"]
        stats = {(s["p"], s["ratio_kind"]): s for s in report.summary["ratio_statistics"]}
        for p in (3.0, 4.0, 8.0):
            assert np.isfinite(stats[(p, "bg_ratio")]["max"])
            assert np.isfinite(stats[(p, "dual_doob_ratio")]["max"])

        # scale invariance under X -> 3X
        filt = cfg.build_filtration()
        for rng in nc.spawn_generators(9000, 50):
            x = nc.martingale_from_terminal(filt, nc.random_element(filt.algebra, rng))
            grid = nc.full_partition(x)
            for p in (3.0, 4.0, 8.0):
                assert abs(nc.bg_ratio(3.0 * x, grid, p)
                           - nc.bg_ratio(x, grid, p)) <= 1e-10
                assert abs(nc.dual_doob_ratio(3.0 * x, grid, p)
                           - nc.dual_doob_ratio(x, grid, p)) <= 1e-10
