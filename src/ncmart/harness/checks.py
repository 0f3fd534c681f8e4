"""The one place that judges: every check record of every command.

Operations return values and, where an identity can only be judged from
their intermediates, a ``residuals`` dict.  Each check family here turns
those into rows ``(check, formula, residual, tolerance)``, in a fixed
order, with tolerances from :mod:`ncmart.tolerances`; a residual is a
number, or an ``(N,)`` array over a stack of N instances.  Where an
identity equates independent routes (the bracket against the quadratic
variation, the cross variation against its expansion and polarization),
the routes other than the operation's are computed here.  Formula strings
describe the identity itself so a failing record is self-explanatory.
:func:`by_instance` alone turns rows into a :class:`RecordTable`, the
records of a batch as one residual and one verdict column per row, and
:meth:`RecordTable.records` alone makes :class:`CheckRecord` objects from
it, on demand: :func:`identity_rows` is the identity suite behind
``verify``, run on a stack of all instances, :func:`kolmogorov_checks` and
:func:`refine_checks` give the rows of the other commands, and
:func:`ratio_checks` and :func:`error_checks` give the one-row tables of
the ``ratios`` sweep and of an instance that a numerical error cut short.
Every family acts per element of a stack; complex moduli go through
:func:`modulus` and squares of norms through ``algebra.squared``, so a
stacked element gets the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..algebra import (AlgElement, TracialAlgebra, abs2, lp_norm, min_eigenvalue, squared,
                       trace)
from ..doob_meyer import (DECOMPOSITION_VARIANTS, bracket_via_integrals, cross_variation,
                          doob_meyer_decompose, naturality_gap, naturality_pairing,
                          quadratic_variation_sum, uniqueness_residual)
from ..inequalities import ProjectionCertificate
from ..integrals import integral_process, left_sum, right_sum
from ..processes import (AdaptedProcess, Filtration, full_partition, increments,
                         lift_process, martingale_from_terminal, partial_sums, random_stack,
                         refine_times, refined_filtration, submartingale_abs2_defect)
from ..tolerances import (CHECK_TOL, CHECK_TOL_DERIVED, CHECK_TOL_PREDICATE,
                          CHECK_TOL_REFINEMENT, LOEWNER_HERMITIAN_TOL, worst)


@dataclass(frozen=True)
class CheckRecord:
    check: str
    formula: str
    residual: float
    tolerance: float
    passed: bool
    instance: int


def record(check: str, formula: str, residual: float, tolerance: float, passed: bool,
           instance: int) -> CheckRecord:
    return CheckRecord(check, formula, residual, tolerance, passed, instance)


class RecordTable(NamedTuple):
    """The records of a batch: one ``(check, formula, tolerance)`` row per
    check, one column of float residuals and one of verdicts per row, over the
    instances.  Its records run instance by instance, each in row order."""
    rows: list[tuple[str, str, float]]
    columns: list[list[float]]
    verdicts: list[list[bool]]
    instances: list[int]

    @property
    def all_passed(self) -> bool:
        return all(map(all, self.verdicts))

    def records(self) -> list[CheckRecord]:
        return [record(check, formula, column[k], tolerance, verdict[k], instance)
                for k, instance in enumerate(self.instances)
                for (check, formula, tolerance), column, verdict
                in zip(self.rows, self.columns, self.verdicts)]


def by_instance(checks: list[tuple], instances: list[int]) -> RecordTable:
    """The record table of the instances, from ``(check, formula, residual, tolerance)``
    rows whose residual is an array over the instances or a number for all of them.
    The one judgement of every record is made here: a residual passes when it is at
    most its tolerance, so a NaN residual fails."""
    n = len(instances)
    columns = [np.broadcast_to(np.asarray(residual, dtype=float), (n,)).tolist()
               for _, _, residual, _ in checks]
    return RecordTable(
        [(check, formula, tolerance) for check, formula, _, tolerance in checks],
        columns,
        [[r <= tolerance for r in column] for (*_, tolerance), column in zip(checks, columns)],
        list(instances))


def modulus(z):
    """|z| of a complex number, or per entry of a complex array, as Python's
    ``abs`` gives it (``np.abs`` of a complex array differs in the last bit)."""
    return np.hypot(z.real, z.imag)


def conditional_expectation_checks(x: AdaptedProcess, x_term: AlgElement,
                                   y: AlgElement) -> list[tuple]:
    """Trace duality/preservation, tower, module, Schwarz, contraction, engines of x_term
    and y; E_t x_term, |E_t x_term|^2 and the tower residual come from the martingale x."""
    xy, x2 = x_term @ y, abs2(x_term)
    rows = []  # per level: the worst term of each of the six checks below
    for level, ex, ex2 in zip(x.filtration.levels, x.values, x.squares()):
        a = level.expect(y)
        b = level.expect(xy)
        rows.append((
            modulus(trace(ex @ y) - trace(x_term @ a)),
            modulus(trace(ex) - trace(x_term)),
            lp_norm(level.expect(a @ x_term @ b) - a @ ex @ b, 2),
            -min_eigenvalue(level.expect(x2) - ex2, tol=LOEWNER_HERMITIAN_TOL),
            worst(lp_norm(ex, p) - lp_norm(x_term, p) for p in (1.0, 2.0, 4.0, math.inf)),
            lp_norm(ex - level.as_general().expect(x_term), 2) if level.kind != "general" else 0.0,
        ))
    duality, preserve, module, schwarz, contraction, engines = map(worst, zip(*rows))
    tower = x.martingale_residual()
    return [
        ("trace_duality", "tau((E_t x) y) == tau(x E_t y)", duality, CHECK_TOL),
        ("trace_preservation", "tau(E_t x) == tau(x)", preserve, CHECK_TOL),
        ("tower_property", "E_s(E_t x) == E_s x for s <= t", tower, CHECK_TOL),
        ("module_property", "E_t(a x b) == a (E_t x) b for a, b in level t",
         module, CHECK_TOL_DERIVED),
        ("schwarz_positivity", "E_t|x|^2 >= |E_t x|^2 (Loewner)", schwarz, CHECK_TOL_DERIVED),
        ("norm_contraction", "||E_t x||_p <= ||x||_p for p in {1,2,4,inf}",
         contraction, CHECK_TOL_DERIVED),
        ("engine_agreement", "closed-form E_t == Gram-engine E_t", engines, CHECK_TOL),
    ]


def martingale_checks(x: AdaptedProcess) -> list[tuple]:
    levels = x.filtration.levels
    grid = full_partition(x)
    dxs, dsq, sq = increments(x, grid), x.increment_squares(grid), x.squares()

    null_inc = worst(lp_norm(levels[k - 1].expect(dx), 2) for k, dx in enumerate(dxs, 1))
    proj_id = worst(
        lp_norm(levels[k - 1].expect(d) - levels[k - 1].expect(sq[k] - sq[k - 1]), 2)
        for k, d in enumerate(dsq, 1))
    energy = abs(sum(trace(d).real for d in dsq)
                 - (trace(sq[-1]).real - trace(sq[0]).real))
    norms = [[lp_norm(v, p) for v in x.values] for p in (2.0, 4.0)]
    monotone = worst(a - b for ns in norms for a, b in zip(ns, ns[1:]))
    return [
        ("martingale_residual", "E_s X(t) == X(s)", x.martingale_residual(), CHECK_TOL),
        ("null_increments", "E_{k-1} dX_k == 0", null_inc, CHECK_TOL),
        ("increment_projection",
         "E_{k-1}|dX_k|^2 == E_{k-1}(|X_k|^2 - |X_{k-1}|^2)", proj_id, CHECK_TOL),
        ("increment_energy", "sum_k tau|dX_k|^2 == tau|X_m|^2 - tau|X_0|^2", energy, CHECK_TOL),
        ("norm_monotonicity", "||X(s)||_p <= ||X(t)||_p for p in {2,4}",
         monotone, CHECK_TOL_DERIVED),
        ("submartingale_loewner", "E_s|X(t)|^2 >= |X(s)|^2 (Loewner)",
         submartingale_abs2_defect(x), CHECK_TOL_DERIVED),
    ]


def integral_checks(x: AdaptedProcess, f: AdaptedProcess) -> list[tuple]:
    grid = full_partition(x)

    # exact invariance under refinement past the finest grid
    fine, src = refined_filtration(x.filtration, refine_times(x.filtration.grid.times))
    xf, ff = lift_process(x, fine, src), lift_process(f, fine, src)
    orig_in_fine = [k for k, s in enumerate(src) if k == 0 or s != src[k - 1]]
    finest = full_partition(xf)
    invariance = worst(lp_norm(sum_fn(xf, ff, finest) - sum_fn(xf, ff, orig_in_fine), 2)
                       for sum_fn in (left_sum, right_sum))

    # cross terms of a genuine refinement difference vanish in the trace
    half = grid[::2] if grid[-1] in grid[::2] else tuple(grid[::2]) + (grid[-1],)
    ortho = 0.0
    if len(half) >= 2 and len(half) < len(grid):
        dxs = increments(x, grid)
        diff_terms = [dxs[k] @ (f.values[k] - f.values[a])
                      for a, b in zip(half, half[1:]) for k in range(a, b)]
        lhs = squared(lp_norm(partial_sums(x.filtration.algebra, diff_terms)[-1], 2))
        rhs = sum(squared(lp_norm(t, 2)) for t in diff_terms)
        ortho = abs(lhs - rhs)

    left_proc = integral_process(x, f, "left")
    right_proc = integral_process(x, f, "right")
    return [
        ("refinement_invariance", "S_theta is fixed once theta contains every change index",
         invariance, CHECK_TOL_REFINEMENT),
        ("refinement_orthogonality", "||S_fine - S_coarse||_2^2 == sum of diagonal term norms",
         ortho, CHECK_TOL),
        ("integral_martingale_left", "partial left integral sums form a martingale",
         left_proc.martingale_residual(), CHECK_TOL_DERIVED),
        ("integral_martingale_right", "partial right integral sums form a martingale",
         right_proc.martingale_residual(), CHECK_TOL_DERIVED),
    ]


def gap_checks(residuals: list[dict]) -> list[tuple]:
    """Orthogonality and fourth-moment bound of the naturality gap.

    ``residuals`` are :func:`naturality_gap` residual dicts, one per
    partition; each row carries the worst of them.
    """
    return [
        ("gap_orthogonality", "g^2 == sum_k || |dX_k|^2 - E_{k-1}|dX_k|^2 ||_2^2",
         worst(r["orthogonality"] for r in residuals), CHECK_TOL_DERIVED),
        ("gap_fourth_moment", "g^2 <= 4 tau(sum_k |dX_k|^4)",
         worst(r["fourth_moment"] for r in residuals), CHECK_TOL_DERIVED),
    ]


def certificate_checks(cert: ProjectionCertificate) -> list[tuple]:
    """The trace and sup-norm bounds a Kolmogorov certificate must meet."""
    return [
        ("kolmogorov_trace_bound", "tau(1 - e) <= ||X_m||_2^2 / eps^2",
         worst([cert.trace_defect - cert.trace_bound]), CHECK_TOL),
        ("kolmogorov_sup_norm", "||e X_n||_inf <= eps for every n",
         worst(s - cert.epsilon for s in cert.sup_norms), CHECK_TOL_DERIVED),
    ]


def doob_meyer_checks(x: AdaptedProcess, y: AdaptedProcess,
                      partner: AlgElement) -> list[tuple]:
    grid = full_partition(x)
    levels, sq = x.filtration.levels, x.squares()
    out: list[tuple] = []

    qv = quadratic_variation_sum(x, grid)
    bracket = bracket_via_integrals(x, grid)
    out.append(("bracket_equals_qv",
                "|X_m|^2 - |X_0|^2 - S^l(dX*, X) - S^r(X*, dX) == sum_k |dX_k|^2",
                lp_norm(bracket - qv, 2), CHECK_TOL))

    decompositions = {v: doob_meyer_decompose(x, v) for v in DECOMPOSITION_VARIANTS}
    a = decompositions["predictable"].increasing_part
    lhs, rhs = naturality_pairing(a, partner, grid)
    out.append(("naturality_pairing",
                "sum_k tau(E_{k-1}(y) dA_k) == tau(y A_m) for predictable A",
                modulus(lhs - rhs), CHECK_TOL))

    g, gap_residuals = naturality_gap(x, grid)
    out += gap_checks([gap_residuals])

    comp_inc = worst(
        lp_norm(levels[j - 1].expect(da) - (levels[j - 1].expect(sq[j]) - sq[j - 1]), 2)
        for j, da in enumerate(increments(a, grid), 1))
    out.append(("compensator_increment", "E_{j-1} dA_j == E_{j-1}|X_j|^2 - |X_{j-1}|^2",
                comp_inc, CHECK_TOL))

    pair_gap = modulus(trace(partner @ (a.values[-1] - qv)))
    out.append(("pairing_gap_bound", "|tau(y (A_m - <X>_m))| <= ||y||_2 g",
                worst([pair_gap - lp_norm(partner, 2) * g]), CHECK_TOL))

    herm = 0.5 * (x + x.adjoint())
    out.append(("uniqueness_residual",
                "tau(sum_k (dM_k)^2) == tau|M_m|^2 - tau|M_0|^2 for selfadjoint M",
                uniqueness_residual(herm), CHECK_TOL))

    # cross variation against the second martingale, via independent routes
    direct = cross_variation(x, y, grid)
    xs = x.adjoint()
    expansion = (xs.values[-1] @ y.values[-1] - xs.values[0] @ y.values[0]
                 - left_sum(xs, y, grid) - right_sum(y, xs, grid))
    out.append(("cross_expansion",
                "sum_k dX_k* dY_k == X*Y|_0^m - S^l(dX*, Y) - S^r(X*, dY)",
                lp_norm(direct - expansion, 2), CHECK_TOL))
    qvp = lambda p: quadratic_variation_sum(p, grid)
    polar = 0.25 * (qvp(x + y) - qvp(x - y) + 1j * (qvp(1j * x + y) - qvp(1j * x - y)))
    out.append(("cross_polarization", "4 <X,Y> == <X+Y> - <X-Y> + i(<iX+Y> - <iX-Y>)",
                lp_norm(direct - polar, 2), CHECK_TOL))

    for variant, d in decompositions.items():
        out.append((f"dm_reconstruction_{variant}", "|X_t|^2 == M_t + A_t",
                    d.residuals["reconstruction"], CHECK_TOL))
        out.append((f"dm_martingale_part_{variant}", "M is a martingale",
                    d.residuals["martingale_part"], CHECK_TOL_DERIVED))
        out.append((f"dm_initial_{variant}", "A(0) == 0",
                    d.residuals["initial"], CHECK_TOL))
        out.append((f"dm_increasing_{variant}", "dA_j >= 0 (Loewner)",
                    d.residuals["increment_psd_defect"], CHECK_TOL_DERIVED))
        if variant == "predictable":
            out.append(("dm_predictable", "A(t_j) lies in level j-1",
                        d.residuals["predictability"], CHECK_TOL))
    return out


def partner_draws(algebra: TracialAlgebra,
                  rngs: list[np.random.Generator]) -> tuple[AlgElement, AlgElement]:
    """The stacked partners and second terminals of the identity suite: each
    instance draws both from its own stream, after its terminal."""
    return random_stack(algebra, rngs), random_stack(algebra, rngs)


def identity_rows(filtration: Filtration, x_term: AlgElement, partner: AlgElement,
                  y_term: AlgElement) -> list[tuple]:
    """The whole identity suite of terminals x and y and a partner element,
    each a stack over the instances (or one element)."""
    x = martingale_from_terminal(filtration, x_term)
    y = martingale_from_terminal(filtration, y_term)
    return (conditional_expectation_checks(x, x_term, partner) + martingale_checks(x)
            + integral_checks(x, y) + doob_meyer_checks(x, y, partner))


def error_checks(exc: Exception, instance: int) -> RecordTable:
    """The one-row table of an instance that a numerical error cut short: its
    one failing record."""
    return by_instance([(
        "instance_completed",
        f"the instance runs without a numerical error; got {type(exc).__name__}: {exc}",
        math.inf, CHECK_TOL_PREDICATE)], [instance])


def ratio_checks(ratios: np.ndarray | list[float]) -> RecordTable:
    """The one-row table of the ``ratios`` sweep (instance -1): every observed
    ratio is finite and nonnegative."""
    ratios = np.asarray(ratios, dtype=float)
    valid = bool(np.all((ratios >= 0.0) & (ratios < math.inf)))  # NaN fails
    return by_instance([("ratios_finite", "every observed ratio is finite and nonnegative",
                         0.0 if valid else math.inf, CHECK_TOL_PREDICATE)], [-1])


def kolmogorov_checks(cert: ProjectionCertificate) -> tuple[list[tuple], np.ndarray | float]:
    """Certificate bounds and meet-chain monotonicity for ``kolmogorov``.

    ``cert`` certifies a stack of martingales (or one martingale), and each
    residual is an array over the stack (or a number).  Also returns the
    least eigenvalue of f_n - f_{n+1} along the meet chain, in the same form
    (0 for a single step), which the certificate row reports.
    """
    defect = worst(-min_eigenvalue(a.element - b.element, tol=LOEWNER_HERMITIAN_TOL)
                   for a, b in zip(cert.meets, cert.meets[1:]))
    checks = certificate_checks(cert) + [
        ("kolmogorov_chain_monotone", "f_1 >= f_2 >= ... >= f_m (Loewner)",
         defect, CHECK_TOL_DERIVED)]
    return checks, 0.0 - defect  # 0.0, not -0.0, for a monotone chain


def refine_checks(decay: list[float], gap_residuals: list[dict],
                  cert: ProjectionCertificate) -> list[tuple]:
    """Terminal decay, gap identities over the chain, integral-process certificate."""
    return ([("terminal_refinement", "final chain entry against the full grid vanishes",
              decay[-1], CHECK_TOL_REFINEMENT)]
            + gap_checks(gap_residuals)
            + certificate_checks(cert))
