"""Inequality ratios, projection certificates and continuity moduli.

The square-function and dual Doob constants are only known to exist, so
this module estimates the observed ratios over sweeps instead of asserting
numeric bounds.  The Chebyshev and Kolmogorov-type projection bounds, by
contrast, are theorems with explicit constants; the certificates carry
both sides of each bound, and the harness and tests check them as stated
(strict inequalities relaxed to non-strict plus a check tolerance from
:mod:`ncmart.tolerances`, since only the non-strict form is forced at
degenerate equality).

:func:`square_function_ratios`, :func:`epsilon_from_percentile`,
:func:`kolmogorov_projection` and :func:`segal_modulus` also take a stack of
martingales (see :mod:`ncmart.algebra`), and :func:`chebyshev_projection` a
stack of elements: each number they return is then an array over the
stack, one entry per martingale or element, with the bits it gets alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .algebra import (AlgElement, Projection, _each, _frozen, _spectral, lp_norm, min_eigenvalue,
                      proj_meet, psd_sqrt, spectral_projection, squared, trace)
from .errors import DomainError, UndefinedRatioError
from .integrals import SIDES
from .processes import AdaptedProcess, as_partition, require_martingale
from .tolerances import DENOMINATOR_FLOOR, EPSILON_FLOOR, POSITIVITY_TOL

MODULUS_SIDES = ("left", "right", "weak")


@dataclass(frozen=True)
class ChebyshevCertificate:
    """Spectral tail projection of a positive element with its trace bound.

    For a stack of elements the projection is a stack and the numbers
    other than ``eta`` arrays over the stack.
    """
    projection: Projection
    eta: float
    trace_value: float   # tau(e)
    trace_bound: float   # tau(x)/eta
    tail_norm: float     # ||(1-e) x (1-e)||_inf


@dataclass(frozen=True)
class ProjectionCertificate:
    """Kolmogorov-type uniform bound certificate for a finite martingale.

    ``meets`` is the decreasing chain f_1 >= f_2 >= ... >= f_m whose last
    member is the certified projection.  For a stack of martingales the
    projections are stacks and the numbers arrays over the stack.
    """
    projection: Projection
    epsilon: float
    trace_defect: float          # tau(1 - e)
    trace_bound: float           # ||X_m||_2^2 / eps^2
    sup_norms: tuple[float, ...]  # compressed operator norm per step
    side: str
    meets: tuple[Projection, ...] = field(repr=False, default=())


def _ratio(x: AdaptedProcess, idx: tuple[int, ...], p: float, dual: bool):
    """One ratio of x at p, per element of a stack: (ratio, defined, denominator).

    The square-function ratio ||(sum_k |dX_k|^2)^(1/2)||_p / ||X(t_m)||_p,
    or with ``dual`` the dual Doob ratio
    ||sum_k E_{k-1}|dX_k|^2||_{p/2} / ||sum_k |dX_k|^2||_{p/2}.  A ratio is
    defined where its denominator exceeds ``DENOMINATOR_FLOOR``; elsewhere
    it is NaN and undefined, not estimated.
    """
    plain, conditioned = x.square_sums(idx)
    if dual:
        numerator, denominator = lp_norm(conditioned, p / 2), lp_norm(plain, p / 2)
    else:
        numerator, denominator = lp_norm(psd_sqrt(plain), p), lp_norm(x.values[idx[-1]], p)
    defined = ~(np.asarray(denominator) <= DENOMINATOR_FLOOR)
    ratio = np.divide(numerator, denominator, out=np.full(defined.shape, np.nan), where=defined)
    return ratio, defined, denominator


def _require_p2(p: float, what: str) -> None:
    if not p >= 2:  # NaN fails too
        raise DomainError(f"{what} needs p >= 2, got {p}")


def bg_ratio(x: AdaptedProcess, partition: Iterable[int], p: float) -> float:
    """||(sum_k |dX_k|^2)^(1/2)||_p / ||X(t_m)||_p for a martingale X.

    Requires p >= 2.  At p = 2 the ratio never exceeds 1 for X(0) = 0
    (the square sum then reproduces ||X_m||_2^2 - ||X_0||_2^2 exactly).
    """
    _require_p2(p, "square-function ratio")
    idx = as_partition(len(x.values), partition)
    ratio, defined, denominator = _ratio(x, idx, p, dual=False)
    if not defined:
        raise UndefinedRatioError(f"terminal p-norm {denominator:.2e} too small")
    return float(ratio)


def dual_doob_ratio(x: AdaptedProcess, partition: Iterable[int], p: float) -> float:
    """||sum_k E_{k-1}|dX_k|^2||_{p/2} / ||sum_k |dX_k|^2||_{p/2}.

    At p = 2 both p/2-norms are traces and agree exactly.
    """
    _require_p2(p, "dual Doob ratio")
    idx = as_partition(len(x.values), partition)
    ratio, defined, denominator = _ratio(x, idx, p, dual=True)
    if not defined:
        raise UndefinedRatioError(f"square-sum {p / 2}-norm {denominator:.2e} too small")
    return float(ratio)


def square_function_ratios(x: AdaptedProcess, partition: Iterable[int],
                           p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bg_ratio` and :func:`dual_doob_ratio` of every martingale of a
    stack at once: ``(bg, dual_doob, defined)``, arrays over the stack.

    ``defined`` marks the elements where both ratios are defined; the
    others would raise :class:`UndefinedRatioError` one by one.
    """
    _require_p2(p, "square-function ratio")
    idx = as_partition(len(x.values), partition)
    bg, bg_defined, _ = _ratio(x, idx, p, dual=False)
    dd, dd_defined, _ = _ratio(x, idx, p, dual=True)
    return bg, dd, bg_defined & dd_defined


def chebyshev_projection(x: AlgElement, eta: float) -> ChebyshevCertificate:
    """Tail spectral projection e = e_{[eta, inf)}(x) of a positive element.

    The certificate carries both sides of the trace bound tau(e) <=
    tau(x)/eta and of the compression bound ||(1-e) x (1-e)||_inf <= eta;
    it does not judge them.  ``eta`` is one real number, also for a stack.
    x memoizes tau(x) once its positivity gate has passed and, per
    selection pattern, tau(e) and the tail norm ||(1-e) x (1-e)||_inf, keyed
    by the memoized projection e; thresholds that select the same
    eigenvectors share them, so a sweep takes one trace of x and one trace
    and tail norm per pattern.  On a stack, every number of the certificate
    is an array over the stack, with the bits each element gets alone.
    """
    if not isinstance(eta, numbers.Real):
        raise DomainError(f"eta must be one real number, got {eta!r}")
    if not 0 < eta < math.inf:  # NaN fails too
        raise DomainError(f"eta must be positive and finite, got {eta}")
    memo = _spectral(x)
    if "chebyshev" not in memo:  # tau(x), stored once the positivity gate has passed
        if not np.all(min_eigenvalue(x, POSITIVITY_TOL) >= -POSITIVITY_TOL):
            raise DomainError("chebyshev projection needs a positive semidefinite element")
        memo["chebyshev"] = _frozen(trace(x).real)
    e = spectral_projection(x, (eta, math.inf))
    pattern = ("chebyshev", e)
    if pattern not in memo:
        comp = e.complement().element
        memo[pattern] = (_frozen(trace(e.element).real),
                         _frozen(lp_norm(comp @ x @ comp, math.inf)))
    trace_value, tail_norm = memo[pattern]
    return ChebyshevCertificate(e, eta, trace_value, memo["chebyshev"] / eta, tail_norm)


def kolmogorov_projection(x: AdaptedProcess, epsilon: float, side: str) -> ProjectionCertificate:
    """Uniform-bound projection for a finite martingale.

    Builds the inductive chain ``e_n`` of spectral projections of the
    compressed square values on [0, eps^2) and their running meets ``f_n``;
    the certificate carries e = f_m together with tau(1-e), the trace
    bound ||X_m||_2^2/eps^2 and the per-step compressed norms (``e X_n``
    for the left side, ``X_n e`` for the right side), for the harness to
    judge.  On a stack, ``epsilon`` may be an array of one threshold per
    martingale.
    """
    if side not in SIDES:
        raise DomainError(f"side must be one of {SIDES}, got {side!r}")
    if not np.all(epsilon > 0):  # NaN fails too
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    require_martingale(x, "certificate")

    steps = x.values[1:]
    if not steps:
        raise DomainError("martingale needs at least one step")
    cut = (0.0, epsilon * epsilon)
    meets: list[Projection] = []
    f = None
    for v in steps:
        sq = v @ v.adjoint() if side == "left" else v.adjoint() @ v
        if f is not None:
            sq = f.element @ sq @ f.element
        e_n = spectral_projection(sq, cut)
        f = e_n if f is None else proj_meet(f, e_n)
        meets.append(f)

    e = meets[-1]
    trace_defect = trace(e.complement().element).real
    trace_bound = squared(lp_norm(x.values[-1], 2)) / (epsilon * epsilon)
    if side == "left":
        sup_norms = tuple(lp_norm(e.element @ v, math.inf) for v in steps)
    else:
        sup_norms = tuple(lp_norm(v @ e.element, math.inf) for v in steps)
    return ProjectionCertificate(e, epsilon, trace_defect, trace_bound,
                                 sup_norms, side, tuple(meets))


def epsilon_from_percentile(x: AdaptedProcess, percentile: float) -> float:
    """Threshold at the given percentile of the step operator norms.

    Keeps certificates nontrivial with high probability; floored at
    ``EPSILON_FLOOR`` so epsilon stays positive even for the zero process.
    One threshold per martingale of a stack.
    """
    norms = [lp_norm(v, math.inf) for v in x.values[1:]]
    eps = np.maximum(np.percentile(norms, percentile, axis=0), EPSILON_FLOOR)
    return _each(eps)


def segal_modulus(p: AdaptedProcess, e: Projection,
                  side: str = "weak") -> list[tuple[float, float]]:
    """Compressed-increment continuity moduli of a process.

    For every distinct gap width d between grid times, reports
    sup over |t - s| <= d of the compressed increment operator norm
    (e*(X(t)-X(s)) for ``left``, (X(t)-X(s))*e for ``right``,
    e*(X(t)-X(s))*e for ``weak``).  Monotone nondecreasing in d.  For a
    stacked process and projection, each modulus is an array over the stack.
    """
    if side not in MODULUS_SIDES:
        raise DomainError(f"side must be one of {MODULUS_SIDES}, got {side!r}")
    times = p.filtration.grid.times
    pairs = []
    for j in range(1, len(times)):
        for i in range(j):
            delta = p.values[j] - p.values[i]
            if side == "left":
                comp = e.element @ delta
            elif side == "right":
                comp = delta @ e.element
            else:
                comp = e.element @ delta @ e.element
            pairs.append((times[j] - times[i], lp_norm(comp, math.inf)))
    pairs.sort(key=lambda gn: gn[0])
    table: list[tuple[float, float]] = []
    running = 0.0
    for gap, norm in pairs:
        running = np.maximum(running, norm)
        if table and table[-1][0] == gap:
            table[-1] = (gap, running)
        else:
            table.append((gap, running))
    return table
