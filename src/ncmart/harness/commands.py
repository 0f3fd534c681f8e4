"""The four experiment commands: verify, ratios, kolmogorov, refine.

Each command is a batch function and a summary, run by one runner that
gives every instance its own counter-based stream, calls the batch
function once on all of them and keeps rows and records in instance order,
so reports are deterministic.  Every batch function runs its instances as
one stack: one stacked draw of terminals from the streams, one stacked
martingale, each check family once, and one :func:`.checks.by_instance`
call for the records (``kolmogorov`` makes one per side).  Commands only
compute; every pass/fail record comes from :mod:`.checks`.  On a numerical
error (a failed precondition, an unadapted computed process, a LAPACK
failure) the runner splits the stack in halves and reruns each on new
streams, which draw that half only, down to the instance that fails alone:
that one reports only its failing ``instance_completed`` record, and every
other instance reports whole, with the bits it gets alone.  Floating-point
warnings are silenced; the report carries the inf and NaN.
"""

from __future__ import annotations

import time

import numpy as np

from ..algebra import AlgElement, stack, trace
from ..doob_meyer import naturality_gap
from ..errors import DomainError, StructureError
from ..inequalities import (epsilon_from_percentile, kolmogorov_projection, segal_modulus,
                            square_function_ratios)
from ..integrals import integral_process, integrand_bound, refinement_table
from ..processes import full_partition, martingale_from_terminal, random_stack, spawn_generators
from .checks import (by_instance, error_checks, identity_rows, kolmogorov_checks,
                     partner_draws, ratio_checks, refine_checks)
from .config import ExperimentConfig
from .report import VerificationReport

NUMERICAL_ERRORS = (DomainError, StructureError, np.linalg.LinAlgError)


def _instance_streams(config: ExperimentConfig) -> list:
    """(instance, rng) of every instance, from new streams on each call."""
    return list(enumerate(spawn_generators(config.seed, config.instances)))


def _terminals(config: ExperimentConfig, drawn: list) -> AlgElement:
    """The stacked terminals of the drawn instances: the config's fixed terminal,
    or else the first draw from each instance's stream."""
    if config.fixed_terminal is not None:
        return stack([config.fixed_terminal] * len(drawn))
    return random_stack(config.filtration.algebra, [rng for _, rng in drawn])


def _attempt(batch, config: ExperimentConfig, drawn: list) -> tuple[list, list, bool]:
    """(rows, records, failed) of ``batch``; a numerical error is the first drawn's record."""
    try:
        return (*batch(config, drawn), False)
    except NUMERICAL_ERRORS as exc:
        return [], error_checks(exc, drawn[0][0]), True


def _contained(batch, config: ExperimentConfig, drawn: list) -> tuple[list, list, bool]:
    """(rows, records, failed) of ``batch`` on the drawn instances.  A stack that
    fails is split in halves, each run on new streams, until every half that passes
    reports whole and every instance that fails alone reports its error."""
    rows, records, failed = _attempt(batch, config, drawn)
    if failed and len(drawn) > 1:
        # An error of the stack is some instance's.  One that neither half repeats
        # stays recorded against the stack's first instance, ahead of its reports.
        fresh = dict(_instance_streams(config))
        half = len(drawn) // 2
        parts = [_contained(batch, config, [(i, fresh[i]) for i, _ in part])
                 for part in (drawn[:half], drawn[half:])]
        if any(f for _, _, f in parts):
            records = []
        rows = [row for part, _, _ in parts for row in part]
        records += [r for _, part, _ in parts for r in part]
    return rows, records, failed


def _sweep(command: str, config: ExperimentConfig, batch,
           summary=lambda report, config, rows: None) -> VerificationReport:
    """The report of ``batch(config, drawn)``, which returns the rows and records
    of the drawn instances in instance order; ``summary(report, config, rows)``
    fills the command's tables and summary entries."""
    t0 = time.perf_counter()
    report = VerificationReport(command, config.to_dict())
    with np.errstate(all="ignore"):
        rows, report.records, _ = _contained(batch, config, _instance_streams(config))
        summary(report, config, rows)
    report.summarize()
    report.timing = {"seconds": time.perf_counter() - t0}
    return report


def _identities(config: ExperimentConfig, drawn: list) -> tuple[list, list]:
    """The identity-suite records of each instance, from one stack of terminals,
    partners and second terminals."""
    x_term = _terminals(config, drawn)
    partner, y_term = partner_draws(config.filtration.algebra, [rng for _, rng in drawn])
    rows = identity_rows(config.filtration, x_term, partner, y_term)
    return [], [r for records in by_instance(rows, [i for i, _ in drawn]) for r in records]


def cmd_verify(config: ExperimentConfig) -> VerificationReport:
    """Run the full identity suite for all instances, as one stack."""
    return _sweep("verify", config, _identities)


def _ratio_rows(config: ExperimentConfig, drawn: list) -> tuple[list, list]:
    """The ratio rows of the drawn instances, in instance order, from one
    stacked martingale; the sweep's one record comes from its summary."""
    x = martingale_from_terminal(config.filtration, _terminals(config, drawn))
    grid = full_partition(config.filtration)
    table = [(p, *square_function_ratios(x, grid, p)) for p in config.p_values]
    return [{"p": p, "instance": i, "bg_ratio": float(bg[k]),
             "dual_doob_ratio": float(dd[k]), "seed": config.seed}
            for k, (i, _) in enumerate(drawn)
            for p, bg, dd, defined in table if defined[k]], []


def _ratio_summary(report: VerificationReport, config: ExperimentConfig, rows) -> None:
    report.tables["ratios"] = rows
    report.tables["csv_table"] = "ratios"
    statistics = []
    for p in config.p_values:
        for key in ("bg_ratio", "dual_doob_ratio"):
            vals = [r[key] for r in rows if r["p"] == p]
            if not vals:
                continue
            arr = np.array(vals)
            statistics.append({
                "p": p, "ratio_kind": key, "instance_count": len(vals),
                "mean": float(arr.mean()), "max": float(arr.max()),
                "q50": float(np.quantile(arr, 0.5)), "q90": float(np.quantile(arr, 0.9)),
            })
    report.summary["ratio_statistics"] = statistics
    [finite] = ratio_checks(rows)
    report.summary["all_finite"] = finite.passed
    report.records.append(finite)


def cmd_ratios(config: ExperimentConfig) -> VerificationReport:
    """Sweep the square-function and dual Doob ratios over p_values, all
    instances as one stack."""
    return _sweep("ratios", config, _ratio_rows, _ratio_summary)


def _certificates(config: ExperimentConfig, drawn: list) -> tuple[list, list]:
    """The left and right certificate rows and records of each instance, from one
    stacked martingale."""
    instances, n = [i for i, _ in drawn], len(drawn)
    x = martingale_from_terminal(config.filtration, _terminals(config, drawn))
    eps = config.epsilon_value if config.epsilon_mode == "fixed" else \
        epsilon_from_percentile(x, config.epsilon_value)
    epsilon = np.broadcast_to(eps, (n,)).tolist()
    sides = []
    for side in ("left", "right"):
        cert = kolmogorov_projection(x, eps, side)
        checks, chain_min = kolmogorov_checks(cert)
        sides.append((side, by_instance(checks, instances), [column.tolist() for column in (
            cert.trace_defect, cert.trace_bound, cert.trace_bound - cert.trace_defect,
            trace(cert.projection.element).real, np.broadcast_to(chain_min, (n,)),
            *cert.sup_norms)]))
    rows, out = [], []
    for k, i in enumerate(instances):
        for side, records, (defect, bound, slack, projection, chain, *sups) in sides:
            sup = max(s[k] for s in sups)
            rows.append({
                "instance": i, "side": side, "epsilon": epsilon[k],
                "trace_defect": defect[k], "trace_bound": bound[k], "trace_slack": slack[k],
                "max_sup_norm": sup, "sup_slack": epsilon[k] - sup,
                "projection_trace": projection[k], "chain_min_eigenvalue": chain[k],
                "seed": config.seed,
            })
            out += records[k]
    return rows, out


def _slack_summary(report: VerificationReport, config: ExperimentConfig, rows) -> None:
    report.certificates = rows
    report.tables["csv_table"] = "certificates"
    slacks = np.array([r["trace_slack"] for r in rows])
    report.summary["bound_slack"] = {"count": len(rows),
                                     "min": float(slacks.min()) if rows else 0.0,
                                     "mean": float(slacks.mean()) if rows else 0.0}


def cmd_kolmogorov(config: ExperimentConfig) -> VerificationReport:
    """Emit uniform-bound projection certificates for both sides."""
    return _sweep("kolmogorov", config, _certificates, _slack_summary)


def _refinements(config: ExperimentConfig, drawn: list) -> tuple[list, list]:
    """Per instance, a row (instance, decay rows, integrand bound, Segal
    modulus), and its records, from one stacked martingale."""
    chain, instances = config.chain, [i for i, _ in drawn]
    column = lambda v: np.broadcast_to(v, (len(drawn),)).tolist()
    x = martingale_from_terminal(config.filtration, _terminals(config, drawn))
    decay = refinement_table(x, x, "left", chain)
    gaps = [naturality_gap(x, part) for part in chain]
    # continuity diagnostics of the integral process; the modulus has no threshold
    proc = integral_process(x, x, "left")
    eps = epsilon_from_percentile(proc, 50.0)
    cert = kolmogorov_projection(proc, eps, "left")
    modulus = [(g, column(m)) for g, m in segal_modulus(proc, cert.projection, "left")]
    records = by_instance(refine_checks(decay, [res for _, res in gaps], cert), instances)
    by_level = [(len(part), column(d), column(g)) for part, d, (g, _) in zip(chain, decay, gaps)]
    bound = column(integrand_bound(x))
    rows = [(i, [{"instance": i, "chain_level": lvl, "partition_size": size,
                  "decay": d[k], "naturality_gap": g[k], "seed": config.seed}
                 for lvl, (size, d, g) in enumerate(by_level)],
             bound[k], [[g, m[k]] for g, m in modulus])
            for k, i in enumerate(instances)]
    return rows, [r for rs in records for r in rs]


def _refine_summary(report: VerificationReport, config: ExperimentConfig, rows) -> None:
    report.tables["refinement"] = [row for _, table, _, _ in rows for row in table]
    report.tables["csv_table"] = "refinement"
    if rows:
        report.summary["integrand_bound"] = {str(i): bound for i, _, bound, _ in rows}
        report.summary["segal_modulus"] = {str(i): modulus for i, _, _, modulus in rows}


def cmd_refine(config: ExperimentConfig) -> VerificationReport:
    """Cauchy-decay tables along the partition chain plus gap diagnostics."""
    return _sweep("refine", config, _refinements, _refine_summary)


COMMANDS = {"verify": cmd_verify, "ratios": cmd_ratios, "kolmogorov": cmd_kolmogorov,
            "refine": cmd_refine}
