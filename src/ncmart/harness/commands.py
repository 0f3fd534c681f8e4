"""The four experiment commands: verify, ratios, kolmogorov, refine.

Each command takes a validated :class:`ExperimentConfig`, runs its sweep
with per-instance counter-based random streams, and returns a
:class:`VerificationReport`.  Instance-level work is independent; results
are assembled in instance order so reports are deterministic.  Commands
only compute; every pass/fail record comes from :mod:`.checks`.  A
numerical error inside one instance (a failed precondition or a LAPACK
failure) becomes that instance's failing record, and the sweep goes on;
a computed process that fails its adaptedness check counts as one.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from ..algebra import stack, trace
from ..doob_meyer import naturality_gap
from ..errors import DomainError, StructureError
from ..inequalities import (epsilon_from_percentile, kolmogorov_projection, segal_modulus,
                            square_function_ratios)
from ..integrals import integral_process, integrand_bound, refinement_table
from ..processes import (full_partition, martingale_from_terminal, random_element,
                         spawn_generators)
from .checks import (error_checks, instance_checks, kolmogorov_checks, ratio_checks,
                     refine_checks)
from .config import ExperimentConfig
from .report import VerificationReport

NUMERICAL_ERRORS = (DomainError, StructureError, np.linalg.LinAlgError)


def _instance_terminals(config: ExperimentConfig):
    """Yield (instance, rng, terminal): the config's fixed terminal, or else
    the first draw from the instance's own stream."""
    fixed, algebra = config.fixed_terminal, config.filtration.algebra
    for i, rng in enumerate(spawn_generators(config.seed, config.instances)):
        yield i, rng, fixed if fixed is not None else random_element(algebra, rng, "general")


@contextlib.contextmanager
def _contained(report: VerificationReport, instance: int):
    """Record a numerical error raised in the block as the instance's failure."""
    try:
        yield
    except NUMERICAL_ERRORS as exc:
        report.records += error_checks(exc, instance)


def cmd_verify(config: ExperimentConfig) -> VerificationReport:
    """Run the full identity suite per instance."""
    t0 = time.perf_counter()
    report = VerificationReport("verify", config.to_dict())
    for i, rng, term in _instance_terminals(config):
        with _contained(report, i):
            report.records.extend(instance_checks(config.filtration, rng, i, terminal=term))
    report.summarize()
    report.timing = {"seconds": time.perf_counter() - t0}
    return report


def _ratio_rows(config: ExperimentConfig, batch: list) -> list[dict]:
    """The ratio rows of the (instance, terminal) pairs of ``batch``, in
    instance order, from one stacked martingale."""
    x = martingale_from_terminal(config.filtration, stack([t for _, t in batch]))
    grid = full_partition(config.filtration)
    table = [(p, *square_function_ratios(x, grid, p)) for p in config.p_values]
    return [{"p": p, "instance": i, "bg_ratio": float(bg[k]),
             "dual_doob_ratio": float(dd[k]), "seed": config.seed}
            for k, (i, _) in enumerate(batch) for p, bg, dd, defined in table if defined[k]]


def cmd_ratios(config: ExperimentConfig) -> VerificationReport:
    """Sweep the square-function and dual Doob ratios over p_values, all
    instances as one stack."""
    t0 = time.perf_counter()
    report = VerificationReport("ratios", config.to_dict())
    batch = [(i, term) for i, _, term in _instance_terminals(config)]
    try:
        rows = _ratio_rows(config, batch)
    except NUMERICAL_ERRORS as exc:
        # An error of the stack is the error of some instance: run each
        # instance alone to find it and keep the rows of the others.  One
        # that no instance repeats is still recorded, against the first.
        rows = []
        for i, term in batch:
            with _contained(report, i):
                rows += _ratio_rows(config, [(i, term)])
        if not report.records:
            report.records += error_checks(exc, batch[0][0])
    report.tables["ratios"] = rows
    report.tables["csv_table"] = "ratios"

    summary = []
    for p in config.p_values:
        for key in ("bg_ratio", "dual_doob_ratio"):
            vals = [r[key] for r in rows if r["p"] == p]
            if not vals:
                continue
            arr = np.array(vals)
            summary.append({
                "p": p, "ratio_kind": key, "instance_count": len(vals),
                "mean": float(arr.mean()), "max": float(arr.max()),
                "q50": float(np.quantile(arr, 0.5)), "q90": float(np.quantile(arr, 0.9)),
            })
    report.summary["ratio_statistics"] = summary
    [finite] = ratio_checks(rows)
    report.summary["all_finite"] = finite.passed
    report.records.append(finite)
    report.summarize()
    report.timing = {"seconds": time.perf_counter() - t0}
    return report


def cmd_kolmogorov(config: ExperimentConfig) -> VerificationReport:
    """Emit uniform-bound projection certificates for both sides."""
    t0 = time.perf_counter()
    report = VerificationReport("kolmogorov", config.to_dict())
    rows = []
    for i, rng, term in _instance_terminals(config):
        with _contained(report, i):
            x = martingale_from_terminal(config.filtration, term)
            if config.epsilon_mode == "fixed":
                eps = config.epsilon_value
            else:
                eps = epsilon_from_percentile(x, config.epsilon_value)
            for side in ("left", "right"):
                cert = kolmogorov_projection(x, eps, side)
                records, chain_min = kolmogorov_checks(cert, i)
                rows.append({
                    "instance": i,
                    "side": side,
                    "epsilon": eps,
                    "trace_defect": cert.trace_defect,
                    "trace_bound": cert.trace_bound,
                    "trace_slack": cert.trace_bound - cert.trace_defect,
                    "max_sup_norm": max(cert.sup_norms),
                    "sup_slack": eps - max(cert.sup_norms),
                    "projection_trace": trace(cert.projection.element).real,
                    "chain_min_eigenvalue": chain_min,
                    "seed": config.seed,
                })
                report.records += records
    report.certificates = rows
    report.tables["csv_table"] = "certificates"
    slacks = np.array([r["trace_slack"] for r in rows]) if rows else np.zeros(0)
    report.summary["bound_slack"] = {
        "count": len(rows),
        "min": float(slacks.min()) if rows else 0.0,
        "mean": float(slacks.mean()) if rows else 0.0,
    }
    report.summarize()
    report.timing = {"seconds": time.perf_counter() - t0}
    return report


def cmd_refine(config: ExperimentConfig) -> VerificationReport:
    """Cauchy-decay tables along the partition chain plus gap diagnostics."""
    t0 = time.perf_counter()
    report = VerificationReport("refine", config.to_dict())
    chain = config.chain
    rows = []
    for i, rng, term in _instance_terminals(config):
        with _contained(report, i):
            x = martingale_from_terminal(config.filtration, term)
            decay = refinement_table(x, x, "left", chain)
            gaps = [naturality_gap(x, part) for part in chain]
            for lvl, (d, (g, _)) in enumerate(zip(decay, gaps)):
                rows.append({
                    "instance": i, "chain_level": lvl, "partition_size": len(chain[lvl]),
                    "decay": d, "naturality_gap": g, "seed": config.seed,
                })
            report.summary.setdefault("integrand_bound", {})[str(i)] = integrand_bound(x)

            # continuity diagnostics of the integral process; the modulus has no threshold
            proc = integral_process(x, x, "left")
            eps = epsilon_from_percentile(proc, 50.0)
            cert = kolmogorov_projection(proc, eps, "left")
            report.summary.setdefault("segal_modulus", {})[str(i)] = [
                [g, m] for g, m in segal_modulus(proc, cert.projection, "left")]
            report.records += refine_checks(decay, [res for _, res in gaps], cert, i)
    report.tables["refinement"] = rows
    report.tables["csv_table"] = "refinement"
    report.summarize()
    report.timing = {"seconds": time.perf_counter() - t0}
    return report


COMMANDS = {
    "verify": cmd_verify,
    "ratios": cmd_ratios,
    "kolmogorov": cmd_kolmogorov,
    "refine": cmd_refine,
}
