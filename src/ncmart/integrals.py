"""Left and right stochastic integral sums and their refinement behaviour.

Sums use the left endpoint of the integrand throughout.  On a step
filtration the refining-partition limit is exact: once a partition contains
every index at which the integrator or integrand changes, further
refinement does not move the sum, which is what the refinement table
measures.  A sum and a partial-sum process fold the same terms through
:func:`ncmart.processes.partial_sums`, so the process ends on the sum;
the bracket of :mod:`ncmart.doob_meyer` sets them against
:meth:`AdaptedProcess.squares`.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import AlgElement, lp_norm
from .errors import DomainError, StructureError
from .processes import (AdaptedProcess, as_partition, full_partition, increments,
                        partial_sums, require_martingale)

SIDES = ("left", "right")


def _check_pair(x: AdaptedProcess, f: AdaptedProcess, side: str) -> None:
    if x.filtration is not f.filtration:
        raise StructureError("integrator and integrand live on different filtrations")
    if side not in SIDES:
        raise DomainError(f"side must be one of {SIDES}, got {side!r}")


def _terms(x: AdaptedProcess, f: AdaptedProcess, partition: Iterable[int],
           side: str) -> Iterator[AlgElement]:
    """dX_k f(t_{k-1}) (left) or f(t_{k-1}) dX_k (right) over consecutive partition points."""
    idx = as_partition(len(x.values), partition)
    return (dx @ f.values[a] if side == "left" else f.values[a] @ dx
            for a, dx in zip(idx, increments(x, idx)))


def _sum(x: AdaptedProcess, f: AdaptedProcess, partition: Iterable[int], side: str) -> AlgElement:
    _check_pair(x, f, side)
    return partial_sums(x.filtration.algebra, _terms(x, f, partition, side))[-1]


def left_sum(x: AdaptedProcess, f: AdaptedProcess, partition: Iterable[int]) -> AlgElement:
    """sum_k [X(t_k) - X(t_{k-1})] f(t_{k-1}) over consecutive partition points."""
    return _sum(x, f, partition, "left")


def right_sum(x: AdaptedProcess, f: AdaptedProcess, partition: Iterable[int]) -> AlgElement:
    """sum_k f(t_{k-1}) [X(t_k) - X(t_{k-1})] over consecutive partition points."""
    return _sum(x, f, partition, "right")


def integral_process(x: AdaptedProcess, f: AdaptedProcess, side: str) -> AdaptedProcess:
    """Partial integral sums over the full grid, as an adapted process.

    The integrator must pass :func:`require_martingale`; the resulting
    process is then itself a martingale (a property the tests verify).
    """
    _check_pair(x, f, side)
    require_martingale(x, "integrator")
    return AdaptedProcess(x.filtration, partial_sums(x.filtration.algebra,
                                                     _terms(x, f, full_partition(x), side)))


def integrand_bound(f: AdaptedProcess) -> float:
    """sup over grid times of the operator norm of the integrand; per element of a stack."""
    return functools.reduce(np.maximum, [lp_norm(v, math.inf) for v in f.values])


def nested_chain(n_times: int, chain: Sequence[Iterable[int]]) -> list[tuple[int, ...]]:
    """Validate a nonempty chain of partitions, each contained in the next."""
    parts = [as_partition(n_times, c) for c in chain]
    if not parts:
        raise DomainError("empty partition chain")
    for a, b in zip(parts, parts[1:]):
        if not set(a) <= set(b):
            raise DomainError(f"partition chain is not nested: {a} is not a subset of {b}")
    return parts


def refinement_table(x: AdaptedProcess, f: AdaptedProcess, side: str,
                     chain: Sequence[Iterable[int]]) -> list[float]:
    """Cauchy-decay diagnostics along a nested partition chain.

    Entry i is ||S_{theta_{i+1}} - S_{theta_i}||_2 for consecutive chain
    members; the full grid is always appended as the final comparison
    target, so the last entry measures the distance to the finest sum and
    vanishes once the chain reaches it.
    """
    parts = nested_chain(len(x.values), chain)
    parts.append(full_partition(x))
    sums = [_sum(x, f, p, side) for p in parts]
    return [lp_norm(b - a, 2) for a, b in zip(sums, sums[1:])]
