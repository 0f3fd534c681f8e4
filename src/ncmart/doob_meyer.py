"""Quadratic variation, compensator and Doob-Meyer decompositions.

For a martingale X the submartingale (|X(t)|^2) splits as M(t) + A(t) in
two ways: the predictable variant sums conditioned square increments (the
compensator), while the bracket variant takes A to be the quadratic
variation computed from the integral sums.  Their difference is surfaced
through :func:`naturality_gap` rather than hidden; the naturality pairing
and the trace identity behind uniqueness are exposed as numbers.  Each
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
                        require_martingale)
from .tolerances import INITIAL_ZERO_TOL, LOEWNER_HERMITIAN_TOL, SELFADJOINT_TOL, worst


@dataclass(frozen=True)
class Decomposition:
    """|X(t)|^2 = M(t) + A(t) with the defining residuals recorded."""
    martingale_part: AdaptedProcess
    increasing_part: AdaptedProcess
    residuals: dict


def quadratic_variation_sum(x: AdaptedProcess, partition: Iterable[int]) -> AlgElement:
    """sum_k |X(t_k) - X(t_{k-1})|^2 over consecutive partition points."""
    total = x.filtration.algebra.zero()
    for dx in increments(x, partition):
        total = total + abs2(dx)
    return total


def bracket_via_integrals(x: AdaptedProcess, partition: Iterable[int]) -> AlgElement:
    """|X(t)|^2 - |X(0)|^2 - S^l(dX*, X) - S^r(X*, dX) over the partition.

    Algebraically identical to :func:`quadratic_variation_sum` on the same
    partition, but computed through the integral sums; keeping both routes
    independent is the point.
    """
    idx = as_partition(len(x.values), partition)
    xs = x.adjoint()
    sl = left_sum(xs, x, idx)
    sr = right_sum(x, xs, idx)
    first, last = x.values[idx[0]], x.values[idx[-1]]
    return abs2(last) - abs2(first) - sl - sr


def compensator(x: AdaptedProcess) -> AdaptedProcess:
    """Predictable increasing process A(t_j) = sum_{k<=j} E_{k-1}(|X_k|^2 - |X_{k-1}|^2).

    A(0) = 0, every increment is positive semidefinite, and A(t_j) lies in
    the level j-1 subalgebra (predictability).  Requires a martingale.
    """
    require_martingale(x, "compensator")
    levels = x.filtration.levels
    values = [x.filtration.algebra.zero()]
    for k in range(1, len(x.values)):
        step = levels[k - 1].expect(abs2(x.values[k]) - abs2(x.values[k - 1]))
        values.append(values[-1] + step)
    return AdaptedProcess(x.filtration, values)


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
    sq = [abs2(v) for v in x.values]
    if variant == "predictable":
        a = compensator(x)
    else:
        vals = [x.filtration.algebra.zero()]
        for dx in increments(x, full_partition(x)):
            vals.append(vals[-1] + abs2(dx))
        a = AdaptedProcess(x.filtration, vals)
    m = AdaptedProcess(x.filtration, [s - av for s, av in zip(sq, a.values)], validate=False)

    residuals = {
        "reconstruction": worst(lp_norm(s - mv - av, 2)
                                for s, mv, av in zip(sq, m.values, a.values)),
        "martingale_part": m.martingale_residual(),
        "initial": lp_norm(a.values[0], 2),
        "increment_psd_defect": worst(-min_eigenvalue(b - c, tol=LOEWNER_HERMITIAN_TOL)
                                      for b, c in zip(a.values[1:], a.values[:-1])),
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
    lhs = 0.0 + 0.0j
    for i, j in zip(idx, idx[1:]):
        lhs += trace(levels[i].expect(y) @ (a.values[j] - a.values[i]))
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
    terms = []
    fourth = 0.0
    for i, j in zip(idx, idx[1:]):
        sq = abs2(x.values[j] - x.values[i])
        terms.append(sq - levels[i].expect(sq))
        fourth += trace(sq @ sq).real
    total = x.filtration.algebra.zero()
    for d in terms:
        total = total + d
    g = lp_norm(total, 2)
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
    s = 0.0
    for dm in increments(m, full_partition(m)):
        s += trace(dm @ dm).real
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
    total = x.filtration.algebra.zero()
    for (i, j) in zip(idx, idx[1:]):
        total = total + (x.values[j] - x.values[i]).adjoint() @ (y.values[j] - y.values[i])
    return total
