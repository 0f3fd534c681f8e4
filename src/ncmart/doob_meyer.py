"""Quadratic variation, compensator and Doob-Meyer decompositions.

For a martingale X the submartingale (|X(t)|^2) splits as M(t) + A(t) in
two ways: the predictable variant sums conditioned square increments (the
compensator), while the bracket variant takes A to be the quadratic
variation computed from the integral sums.  Their difference is surfaced
through :func:`naturality_gap` rather than hidden; the naturality pairing
and the trace identity behind uniqueness are exposed as numbers.  Every
sum here folds its terms through :func:`ncmart.processes.partial_sums`
and takes |X(t)|^2 and |dX_k|^2 from :meth:`AdaptedProcess.squares` and
:meth:`AdaptedProcess.increment_squares`.  Each
function also takes stacked processes (see :mod:`ncmart.algebra`), and its
numbers and gates then act per element of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .algebra import AlgElement, abs2, lp_norm, min_eigenvalue, squared, trace
from .errors import DomainError, StructureError
from .integrals import left_sum, right_sum
from .processes import (AdaptedProcess, as_partition, full_partition, increments,
                        partial_sums, require_martingale)
from .tolerances import INITIAL_ZERO_TOL, LOEWNER_HERMITIAN_TOL, SELFADJOINT_TOL, worst


@dataclass(frozen=True)
class Decomposition:
    """|X(t)|^2 = M(t) + A(t) with the defining residuals recorded."""
    martingale_part: AdaptedProcess
    increasing_part: AdaptedProcess
    residuals: dict


def quadratic_variation_sum(x: AdaptedProcess, partition: Iterable[int]) -> AlgElement:
    """sum_k |X(t_k) - X(t_{k-1})|^2 over consecutive partition points."""
    return partial_sums(x.filtration.algebra, x.increment_squares(partition))[-1]


def bracket_via_integrals(x: AdaptedProcess, partition: Iterable[int]) -> AlgElement:
    """|X(t)|^2 - |X(0)|^2 - S^l(dX*, X) - S^r(X*, dX) over the partition.

    Algebraically identical to :func:`quadratic_variation_sum` on the same
    partition, but computed through the integral sums; keeping both routes
    independent is the point.
    """
    idx = as_partition(len(x.values), partition)
    xs, sq = x.adjoint(), x.squares()
    sl = left_sum(xs, x, idx)
    sr = right_sum(x, xs, idx)
    return sq[idx[-1]] - sq[idx[0]] - sl - sr


def compensator(x: AdaptedProcess) -> AdaptedProcess:
    """Predictable increasing process A(t_j) = sum_{k<=j} E_{k-1}(|X_k|^2 - |X_{k-1}|^2).

    A(0) = 0, every increment is positive semidefinite, and A(t_j) lies in
    the level j-1 subalgebra (predictability).  Requires a martingale.
    """
    require_martingale(x, "compensator")
    levels, sq = x.filtration.levels, x.squares()
    steps = (levels[k - 1].expect(sq[k] - sq[k - 1]) for k in range(1, len(sq)))
    return AdaptedProcess(x.filtration, partial_sums(x.filtration.algebra, steps))


DECOMPOSITION_VARIANTS = ("predictable", "bracket")


def doob_meyer_decompose(x: AdaptedProcess, variant: str = "predictable") -> Decomposition:
    """Split |X(t)|^2 as a martingale plus an increasing positive process.

    ``predictable`` uses the compensator; ``bracket`` uses the quadratic
    variation over the full grid.  Both reconstruct |X(t)|^2 exactly; the
    residuals record reconstruction, martingale, positivity and (for the
    predictable variant) predictability defects.
    """
    if variant not in DECOMPOSITION_VARIANTS:
        raise DomainError(f"variant must be one of {DECOMPOSITION_VARIANTS}, got {variant!r}")
    require_martingale(x, "decomposition")
    sq = x.squares()
    if variant == "predictable":
        a = compensator(x)
    else:
        a = AdaptedProcess(x.filtration, partial_sums(
            x.filtration.algebra, x.increment_squares(full_partition(x))))
    m = AdaptedProcess(x.filtration, [s - av for s, av in zip(sq, a.values)], validate=False)

    residuals = {
        "reconstruction": worst(lp_norm(s - mv - av, 2)
                                for s, mv, av in zip(sq, m.values, a.values)),
        "martingale_part": m.martingale_residual(),
        "initial": lp_norm(a.values[0], 2),
        "increment_psd_defect": worst(-min_eigenvalue(da, tol=LOEWNER_HERMITIAN_TOL)
                                      for da in increments(a, full_partition(a))),
    }
    if variant == "predictable":
        levels = x.filtration.levels
        residuals["predictability"] = worst(
            lp_norm(levels[j - 1].expect(a.values[j]) - a.values[j], 2)
            for j in range(1, len(a.values)))
    return Decomposition(m, a, residuals)


def naturality_pairing(a: AdaptedProcess, y: AlgElement,
                       partition: Iterable[int]) -> tuple[complex, complex]:
    """Both sides of the discrete naturality pairing for an increasing process.

    Returns ``(sum_k tau(E_{k-1}(y) dA_k), tau(y A(t_m)))``; the two agree
    for a predictable A evaluated on the full grid.  Requires A(0) = 0.
    """
    if not np.all(lp_norm(a.values[0], 2) <= INITIAL_ZERO_TOL):  # per element of a stack
        raise DomainError("naturality pairing requires A(0) = 0")
    idx = as_partition(len(a.values), partition)
    levels = a.filtration.levels
    lhs = sum(trace(levels[i].expect(y) @ da) for i, da in zip(idx, increments(a, idx)))
    rhs = trace(y @ a.values[idx[-1]])
    return lhs, rhs


def naturality_gap(x: AdaptedProcess, partition: Iterable[int]) -> tuple[float, dict]:
    """g = || sum_k d_k ||_2 with d_k = |dX_k|^2 - E_{k-1}|dX_k|^2 over the partition.

    Returns ``(g, residuals)``.  ``orthogonality`` is ``|g^2 - sum_k
    ||d_k||_2^2|`` and ``fourth_moment`` is ``max(0, g^2 - 4 tau(sum_k
    |dX_k|^4))``; both vanish for a martingale, and the harness judges them.
    """
    idx = as_partition(len(x.values), partition)
    levels = x.filtration.levels
    sqs = x.increment_squares(idx)
    terms = [sq - levels[i].expect(sq) for i, sq in zip(idx, sqs)]
    fourth = sum(trace(sq @ sq).real for sq in sqs)
    g = lp_norm(partial_sums(x.filtration.algebra, terms)[-1], 2)
    residuals = {
        "orthogonality": abs(squared(g) - sum(squared(lp_norm(d, 2)) for d in terms)),
        "fourth_moment": worst([squared(g) - 4.0 * fourth]),
    }
    return g, residuals


def uniqueness_residual(m: AdaptedProcess) -> float:
    """| tau(sum_k (dM_k)^2) - (tau|M_m|^2 - tau|M_0|^2) | for selfadjoint M.

    The trace identity that forces a selfadjoint martingale with vanishing
    square increments to be constant; it holds for every selfadjoint
    martingale, so the returned residual should sit at rounding level.
    """
    defect = worst(lp_norm(v - v.adjoint(), 2) for v in m.values)
    if not np.all(defect <= SELFADJOINT_TOL):  # per element of a stack
        raise DomainError(f"process is not selfadjoint (defect {np.max(defect):.2e})")
    require_martingale(m, "uniqueness residual")
    s = sum(trace(dm @ dm).real for dm in increments(m, full_partition(m)))
    target = trace(abs2(m.values[-1])).real - trace(abs2(m.values[0])).real
    return abs(s - target)


def cross_variation(x: AdaptedProcess, y: AdaptedProcess,
                    partition: Iterable[int]) -> AlgElement:
    """<X, Y> = sum_k dX_k* dY_k over the partition.

    The integral expansion ``X*(t)Y(t) - X*(0)Y(0) - S^l(dX*, Y) -
    S^r(X*, dY)`` and the polarization formula through
    :func:`quadratic_variation_sum` reach the same element by independent
    routes; the harness compares them with this sum.
    """
    if x.filtration is not y.filtration:
        raise StructureError("processes live on different filtrations")
    idx = as_partition(len(x.values), partition)
    return partial_sums(x.filtration.algebra, (dx.adjoint() @ dy for dx, dy in
                                               zip(increments(x, idx), increments(y, idx))))[-1]
