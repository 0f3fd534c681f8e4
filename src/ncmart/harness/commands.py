"""The four experiment commands: verify, ratios, kolmogorov, refine.

Each command is a batch function and a summary, run by one runner that
gives every instance its own counter-based stream, calls the batch
function once on all of them and keeps row and record tables in instance
order, so reports are deterministic.  Every batch function runs its instances
as one stack: one stacked draw of terminals from the streams, one stacked
martingale, each check family once, one :class:`.report.RowTable` of its rows
made from the stacked arrays, and one :func:`.checks.by_instance` call, whose
record table holds the records of every instance (``kolmogorov`` puts its
left rows before its right ones).  Commands only compute; every pass/fail
record comes from :mod:`.checks`.  On a numerical error (a failed
precondition, an unadapted computed process, a Gram basis that reads as
dependent, a LAPACK failure) the runner
splits the stack in halves and reruns each on new streams, which draw that
half only, down to the instance that fails alone:
that one reports only its failing ``instance_completed`` record, and every
other instance reports whole, with the bits it gets alone.  Floating-point
warnings are silenced; the report carries the inf and NaN.
"""

from __future__ import annotations

import time

import numpy as np

from ..algebra import AlgElement, stack, trace
from ..doob_meyer import naturality_gap
from ..errors import DomainError, IllConditionedBasisError, StructureError
from ..inequalities import (epsilon_from_percentile, kolmogorov_projection, segal_modulus,
                            square_function_ratios)
from ..integrals import integral_process, integrand_bound, refinement_table
from ..processes import full_partition, martingale_from_terminal, random_stack, spawn_generators
from ..tolerances import worst
from .checks import (by_instance, error_checks, identity_rows, kolmogorov_checks,
                     partner_draws, ratio_checks, refine_checks)
from .config import ExperimentConfig
from .report import RowTable, VerificationReport, joined

NUMERICAL_ERRORS = (DomainError, StructureError, IllConditionedBasisError, np.linalg.LinAlgError)


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
    """(rows, tables, failed) of ``batch``; a numerical error is the first drawn's record."""
    try:
        return (*batch(config, drawn), False)
    except NUMERICAL_ERRORS as exc:
        return [], [error_checks(exc, drawn[0][0])], True


def _contained(batch, config: ExperimentConfig, drawn: list) -> tuple[list, list, bool]:
    """(rows, tables, failed) of ``batch`` on the drawn instances.  A stack that
    fails is split in halves, each run on new streams, until every half that passes
    reports whole and every instance that fails alone reports its error."""
    rows, tables, failed = _attempt(batch, config, drawn)
    if failed and len(drawn) > 1:
        # An error of the stack is some instance's.  One that neither half repeats
        # stays recorded against the stack's first instance, ahead of its reports.
        fresh = dict(_instance_streams(config))
        half = len(drawn) // 2
        parts = [_contained(batch, config, [(i, fresh[i]) for i, _ in part])
                 for part in (drawn[:half], drawn[half:])]
        if any(f for _, _, f in parts):
            tables = []
        rows = [row for part, _, _ in parts for row in part]
        tables += [t for _, part, _ in parts for t in part]
    return rows, tables, failed


def _sweep(command: str, config: ExperimentConfig, batch,
           summary=lambda report, config, rows: None) -> VerificationReport:
    """The report of ``batch(config, drawn)``, which returns the row tables and
    record tables of the drawn instances in instance order; ``summary(report,
    config, rows)`` joins the row tables and fills the command's summary entries."""
    t0 = time.perf_counter()
    report = VerificationReport(command, config.to_dict())
    with np.errstate(all="ignore"):
        rows, report.record_tables, _ = _contained(batch, config, _instance_streams(config))
        summary(report, config, rows)
    report.summarize()
    report.timing = {"seconds": time.perf_counter() - t0}
    return report


def _identities(config: ExperimentConfig, drawn: list) -> tuple[list, list]:
    """The identity-suite record table of the instances, from one stack of
    terminals, partners and second terminals."""
    x_term = _terminals(config, drawn)
    partner, y_term = partner_draws(config.filtration.algebra, [rng for _, rng in drawn])
    rows = identity_rows(config.filtration, x_term, partner, y_term)
    return [], [by_instance(rows, [i for i, _ in drawn])]


def cmd_verify(config: ExperimentConfig) -> VerificationReport:
    """Run the full identity suite for all instances, as one stack."""
    return _sweep("verify", config, _identities)


def _instance_major(columns: list[list]) -> list:
    """The entries of per-instance columns, instance by instance, each in column order."""
    return [v for row in zip(*columns) for v in row]


def _ratio_rows(config: ExperimentConfig, drawn: list) -> tuple[list, list]:
    """The ratio rows of the drawn instances, p by p within each instance where
    both ratios are defined, from one stacked martingale; the sweep's one
    record comes from its summary."""
    x = martingale_from_terminal(config.filtration, _terminals(config, drawn))
    grid = full_partition(config.filtration)
    bg, dd, defined = map(np.column_stack, zip(*(square_function_ratios(x, grid, p)
                                                 for p in config.p_values)))
    p, instance = np.broadcast_arrays(config.p_values, np.array([i for i, _ in drawn])[:, None])
    return [RowTable.of(p=p[defined].tolist(), instance=instance[defined].tolist(),
                        bg_ratio=bg[defined].tolist(), dual_doob_ratio=dd[defined].tolist(),
                        seed=[config.seed] * int(defined.sum()))], []


def _ratio_summary(report: VerificationReport, config: ExperimentConfig, rows) -> None:
    report.csv_table, report.row_table = "ratios", joined(rows)
    kinds = ("bg_ratio", "dual_doob_ratio")
    ps = np.array(report.row_table.column("p"))
    ratios = np.array([report.row_table.column(key) for key in kinds])
    statistics = []
    for p in config.p_values:
        arr = ratios[:, ps == p]  # a repeated p pools its rows, in row order
        if not arr.size:
            continue
        for key, values, q50, q90 in zip(kinds, arr, *np.quantile(arr, [0.5, 0.9], axis=1)):
            statistics.append({"p": p, "ratio_kind": key, "instance_count": len(values),
                               "mean": float(values.mean()), "max": float(values.max()),
                               "q50": float(q50), "q90": float(q90)})
    report.summary["ratio_statistics"] = statistics
    finite = ratio_checks(ratios)
    report.summary["all_finite"] = finite.all_passed
    report.record_tables.append(finite)


def cmd_ratios(config: ExperimentConfig) -> VerificationReport:
    """Sweep the square-function and dual Doob ratios over p_values, all
    instances as one stack."""
    return _sweep("ratios", config, _ratio_rows, _ratio_summary)


def _certificates(config: ExperimentConfig, drawn: list) -> tuple[list, list]:
    """The left and right certificate rows of each instance and their record
    table, from one stacked martingale."""
    instances, n = [i for i, _ in drawn], len(drawn)
    x = martingale_from_terminal(config.filtration, _terminals(config, drawn))
    eps = config.epsilon_value if config.epsilon_mode == "fixed" else \
        epsilon_from_percentile(x, config.epsilon_value)
    epsilon = np.broadcast_to(eps, (n,)).tolist()
    sides, checks = [], []
    for side in ("left", "right"):
        cert = kolmogorov_projection(x, eps, side)
        side_checks, chain_min = kolmogorov_checks(cert)
        checks += side_checks
        sup = np.broadcast_to(worst(cert.sup_norms), (n,)).tolist()  # NaN if any step is
        defect, bound, slack, projection, chain = (np.broadcast_to(c, (n,)).tolist() for c in (
            cert.trace_defect, cert.trace_bound, cert.trace_bound - cert.trace_defect,
            trace(cert.projection.element).real, chain_min))
        sides.append(dict(
            instance=instances, side=[side] * n, epsilon=epsilon, trace_defect=defect,
            trace_bound=bound, trace_slack=slack, max_sup_norm=sup,
            sup_slack=[e - s for e, s in zip(epsilon, sup)], projection_trace=projection,
            chain_min_eigenvalue=chain, seed=[config.seed] * n))
    left, right = sides  # instance by instance, the left row before the right
    return [RowTable.of(**{key: _instance_major([left[key], right[key]]) for key in left})], \
        [by_instance(checks, instances)]


def _slack_summary(report: VerificationReport, config: ExperimentConfig, rows) -> None:
    report.csv_table, report.row_table = "certificates", joined(rows)
    slacks = np.array(report.row_table.column("trace_slack"))
    report.summary["bound_slack"] = {"count": len(slacks),
                                     "min": float(slacks.min()) if len(slacks) else 0.0,
                                     "mean": float(slacks.mean()) if len(slacks) else 0.0}


def cmd_kolmogorov(config: ExperimentConfig) -> VerificationReport:
    """Emit uniform-bound projection certificates for both sides."""
    return _sweep("kolmogorov", config, _certificates, _slack_summary)


def _integral_diagnostics(x) -> tuple:
    """The certificate and Segal modulus (no threshold) of x's integral
    process, which is freed on return, before the naturality gaps."""
    proc = integral_process(x, x, "left")
    cert = kolmogorov_projection(proc, epsilon_from_percentile(proc, 50.0), "left")
    return cert, segal_modulus(proc, cert.projection, "left")


def _refinements(config: ExperimentConfig, drawn: list) -> tuple[list, list]:
    """The decay rows (chain level inner) and (instance, integrand bound, Segal modulus)
    of each drawn instance, and their record table, from one stacked martingale."""
    chain, instances, n = config.chain, [i for i, _ in drawn], len(drawn)
    column = lambda v: np.broadcast_to(v, (n,)).tolist()
    x = martingale_from_terminal(config.filtration, _terminals(config, drawn))
    decay = refinement_table(x, x, "left", chain)
    cert, modulus = _integral_diagnostics(x)
    # last: x keeps the squared increments of its full grid, off the certificate's peak
    gaps = [naturality_gap(x, part) for part in chain]
    table = by_instance(refine_checks(decay, [res for _, res in gaps], cert), instances)
    levels = list(zip(chain, decay, gaps))
    rows = RowTable.of(
        instance=[i for i in instances for _ in levels], chain_level=list(range(len(levels))) * n,
        partition_size=[len(part) for part, _, _ in levels] * n,
        decay=_instance_major([column(d) for _, d, _ in levels]),
        naturality_gap=_instance_major([column(g) for _, _, (g, _) in levels]),
        seed=[config.seed] * (n * len(levels)))
    bound = column(integrand_bound(x))
    modulus = [(g, column(m)) for g, m in modulus]
    return [(rows, [(str(i), bound[k], [[g, m[k]] for g, m in modulus])
                    for k, i in enumerate(instances)])], [table]


def _refine_summary(report: VerificationReport, config: ExperimentConfig, rows) -> None:
    report.csv_table, report.row_table = "refinement", joined(table for table, _ in rows)
    instances = [instance for _, batch in rows for instance in batch]
    if instances:
        report.summary["integrand_bound"] = {i: bound for i, bound, _ in instances}
        report.summary["segal_modulus"] = {i: modulus for i, _, modulus in instances}


def cmd_refine(config: ExperimentConfig) -> VerificationReport:
    """Cauchy-decay tables along the partition chain plus gap diagnostics."""
    return _sweep("refine", config, _refinements, _refine_summary)


COMMANDS = {"verify": cmd_verify, "ratios": cmd_ratios, "kolmogorov": cmd_kolmogorov,
            "refine": cmd_refine}
