"""Block matrix *-algebras with a normalized faithful trace.

An algebra here is a finite direct sum of full complex matrix blocks
``M_{n_1} (+) ... (+) M_{n_B}`` carrying the trace

    tau(x) = sum_b w_b * tr(x_b) / n_b,

a weighted average of normalized block traces, so ``tau(1) == 1`` and tau
is faithful whenever every weight is positive.  This module provides the
element arithmetic, Schatten-type p-norms, Hermitian functional calculus,
spectral projections and the projection-lattice meet that everything else
is built on.

An element may also be a *stack* of N elements: each block is then an array
of shape ``(N, n_b, n_b)`` instead of ``(n_b, n_b)``.  Arithmetic,
:func:`trace`, :func:`lp_norm`, :func:`hermiticity_defect`,
:func:`hermitian_apply`, :func:`psd_sqrt`, :func:`min_eigenvalue`,
:func:`spectral_projection`, :func:`proj_meet` and the :class:`Projection`
gates run on both, acting on every element of a stack at once, so one
element is the N = 1 case of a stack and not a second implementation; only
:func:`_each`, which gives one element's scalars as Python numbers, tells
the two apart.  On a stack, the scalar results are arrays of shape
``(N,)``, and the upper cut of a spectral projection may be such an array,
one cut per element; a failed precondition of any stacked element raises
for the whole stack.  Each stacked element gets the bits it gets alone.  An
element memoizes its spectral data: singular values, eigendecomposition,
square root, one spectral projection per selection pattern of its
eigenvectors, and, on a projection's element, the complement;
:func:`ncmart.inequalities.chebyshev_projection` adds tau(x), once its
positivity gate has passed, and tau(e) and the tail norm of each projection
e to the same memo.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, StructureError
from .tolerances import (HERMITIAN_TOL, MEET_NULL_TOL, PROJECTION_TOL, SPECTRAL_EDGE_TOL,
                         WEIGHT_SUM_TOL)


class TracialAlgebra:
    """Direct sum of full matrix blocks with a weighted normalized trace.

    Parameters
    ----------
    block_dims:
        Positive block sizes ``(n_1, ..., n_B)``.
    block_weights:
        Positive weights summing to 1; defaults to uniform ``1/B``.
    """

    def __init__(self, block_dims: Sequence[int], block_weights: Sequence[float] | None = None):
        dims = tuple(int(n) for n in block_dims)
        if not dims or any(n < 1 for n in dims):
            raise StructureError(f"block_dims must be positive integers, got {block_dims!r}")
        if block_weights is None:
            weights = tuple(1.0 / len(dims) for _ in dims)
        else:
            weights = tuple(float(w) for w in block_weights)
        if len(weights) != len(dims):
            raise StructureError("block_weights length must match block_dims")
        if not all(w > 0 for w in weights):
            raise StructureError("block_weights must be positive (trace faithfulness)")
        if not abs(sum(weights) - 1.0) <= WEIGHT_SUM_TOL:
            raise StructureError(f"block_weights must sum to 1, got {sum(weights)!r}")
        self.block_dims = dims
        self.block_weights = weights
        self._identity: AlgElement | None = None

    @property
    def nblocks(self) -> int:
        return len(self.block_dims)

    @property
    def dim(self) -> int:
        """Complex dimension sum(n_b^2) of the algebra."""
        return sum(n * n for n in self.block_dims)

    def element(self, blocks: Iterable[np.ndarray]) -> "AlgElement":
        return AlgElement(self, blocks)

    def identity(self) -> "AlgElement":
        if self._identity is None:
            self._identity = AlgElement(self, [np.eye(n, dtype=complex) for n in self.block_dims])
        return self._identity

    def zero(self) -> "AlgElement":
        return AlgElement(self, [np.zeros((n, n), dtype=complex) for n in self.block_dims])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TracialAlgebra):
            return NotImplemented
        return self.block_dims == other.block_dims and self.block_weights == other.block_weights

    def __hash__(self) -> int:
        return hash((self.block_dims, self.block_weights))

    def __repr__(self) -> str:
        return f"TracialAlgebra(dims={self.block_dims}, weights={self.block_weights})"


class AlgElement:
    """Element of a :class:`TracialAlgebra`: one complex matrix per block.

    Immutable after construction; all arithmetic returns new elements.
    ``@`` is the algebra product, ``*`` is reserved for scalars.  Spectral
    data (singular values, eigendecomposition, square root, the spectral
    projection of each selection pattern and a projection's complement) is
    computed on first use and kept for the element's lifetime.  Blocks of shape
    ``(N, n_b, n_b)`` make a stack of N elements (see the module notes);
    arithmetic between a stack and one element broadcasts.
    """

    __slots__ = ("algebra", "blocks", "_spectral")

    def __init__(self, algebra: TracialAlgebra, blocks: Iterable[np.ndarray]):
        dims = algebra.block_dims
        blocks = list(blocks)
        if len(blocks) != len(dims):
            raise StructureError(f"expected {len(dims)} blocks, got {len(blocks)}")
        mats = []
        lead = None  # the stack shape, which every block shares
        for n, b in zip(dims, blocks):
            m = np.array(b, dtype=complex, order="C")
            if lead is None:
                lead = m.shape[:-2]
            if m.shape != (*lead, n, n):
                raise StructureError(f"block of shape {m.shape} is not of shape {(*lead, n, n)}")
            m.setflags(write=False)
            mats.append(m)
        _set_algebra(self, algebra)
        _set_blocks(self, tuple(mats))
        _set_spectral(self, None)  # the memo dict is created on the first spectral call

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("AlgElement is immutable")

    def adjoint(self) -> "AlgElement":
        return AlgElement(self.algebra, [_adj(m) for m in self.blocks])

    def __add__(self, other: "AlgElement") -> "AlgElement":
        _check_same_algebra(self, other)
        return AlgElement(self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        _check_same_algebra(self, other)
        return AlgElement(self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.algebra, [-a for a in self.blocks])

    def __mul__(self, scalar) -> "AlgElement":
        if isinstance(scalar, AlgElement):
            raise TypeError("use @ for the algebra product; * is scalar multiplication")
        if not isinstance(scalar, numbers.Complex):
            return NotImplemented
        return AlgElement(self.algebra, [complex(scalar) * a for a in self.blocks])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "AlgElement":
        if not isinstance(scalar, numbers.Complex):
            return NotImplemented
        return self * (1.0 / complex(scalar))

    def __matmul__(self, other: "AlgElement") -> "AlgElement":
        _check_same_algebra(self, other)
        return AlgElement(self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def __repr__(self) -> str:
        return f"AlgElement(dims={self.algebra.block_dims})"


# Slot setters that get past the immutability guard at half the cost of
# object.__setattr__; every element construction runs them.
_set_algebra = AlgElement.algebra.__set__
_set_blocks = AlgElement.blocks.__set__
_set_spectral = AlgElement._spectral.__set__


class Projection:
    """Orthogonal projection: a Hermitian idempotent element.

    Construction validates ``e == e* == e @ e`` within ``PROJECTION_TOL`` in
    operator norm and rejects anything else.
    """

    __slots__ = ("element",)

    def __init__(self, element: AlgElement):
        skew = _skew(element)
        idem = [m @ m - m for m in element.blocks]
        if not (_within(skew, PROJECTION_TOL) and _within(idem, PROJECTION_TOL)):
            sym = hermiticity_defect(element)
            idem_norm = lp_norm(AlgElement(element.algebra, idem), math.inf)
            raise DomainError(f"not a projection: hermiticity defect {np.max(sym):.2e}, "
                              f"idempotency defect {np.max(idem_norm):.2e}")
        object.__setattr__(self, "element", element)

    def __setattr__(self, name, value):
        raise AttributeError("Projection is immutable")

    @property
    def algebra(self) -> TracialAlgebra:
        return self.element.algebra

    def complement(self) -> "Projection":
        """1 - e, memoized on e's element."""
        memo = _spectral(self.element)
        if "complement" not in memo:
            memo["complement"] = Projection(self.algebra.identity() - self.element)
        return memo["complement"]

    def __repr__(self) -> str:
        tau = np.asarray(trace(self.element).real)  # an array for a stack
        return f"Projection(trace={np.array2string(tau, precision=6, floatmode='fixed')})"


def _check_same_algebra(x: AlgElement, y: AlgElement) -> None:
    if x.algebra is not y.algebra and x.algebra != y.algebra:
        raise StructureError("elements belong to different algebras")


# -- block kernels ------------------------------------------------------------
# Each takes blocks of shape (..., n, n) and keeps the leading shape, so one
# element and a stack run the same code.  Stacked matmul, svd and eigh agree
# with per-matrix calls bit for bit; the comments mark where a vectorized form
# would not.

def _adj(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix of a block."""
    return m.conj().swapaxes(-1, -2)


def _skew(x: AlgElement) -> list[np.ndarray]:
    """The blocks of x - x*."""
    return [m - _adj(m) for m in x.blocks]


def _each(a: np.ndarray, fn: Callable | None = None):
    """A kernel's result with ``fn`` (a function of one Python number)
    applied per element: a Python number for one element (``a`` of shape
    ``()``), an array for a stack.  Per element, so a stacked element goes
    through the very float operations it would go through alone."""
    if a.ndim == 0:
        v = a.item()
        return v if fn is None else fn(v)
    return a if fn is None else np.array([fn(v) for v in a.ravel().tolist()]).reshape(a.shape)


def _within(mats: Sequence[np.ndarray], tol: float) -> bool:
    """Whether every matrix of the blocks ``mats`` has operator norm <= tol.

    A matrix whose Frobenius norm is at most tol/2 passes at once, since
    ||d||_op <= ||d||_F; only the others need an SVD.  The verdict is that
    of the exact operator norm: the half keeps the rounding of the two
    norms from deciding, so a stack may sum its squares in any order.
    """
    for d in mats:
        beyond = ~(_vdots(d) <= tol * tol / 4)  # NaN falls through to the SVD
        if beyond.any() and np.linalg.svd(d[beyond], compute_uv=False)[:, 0].max() > tol:
            return False
    return True


def _vdots(m: np.ndarray) -> np.ndarray:
    """tr(a* a) of every matrix a of a block, one matrix or a stack, equal
    bit for bit to ``np.vdot`` of each flattened matrix (a stacked einsum
    rounds differently in the last bit)."""
    flat = m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],))
    return np.vecdot(flat, flat).real


def _tau(x: AlgElement):
    alg = x.algebra
    return sum(w * np.trace(m, axis1=-2, axis2=-1) / n
               for w, n, m in zip(alg.block_weights, alg.block_dims, x.blocks))


def trace(x: AlgElement) -> complex:
    """Normalized trace tau(x) = sum_b w_b tr(x_b)/n_b."""
    return _each(_tau(x))


def _spectral(x: AlgElement) -> dict:
    """x's memo of spectral data, created on the first spectral call.

    Not created in ``__init__``, since most elements never need one.  An
    element and its blocks never change, so a memoized value cannot go
    stale; memoized arrays are read-only.
    """
    memo = x._spectral
    if memo is None:
        memo = {}
        _set_spectral(x, memo)
    return memo


def _frozen(a):
    """a, made read-only if it is an array (a Python number is left as it is)."""
    np.asarray(a).setflags(write=False)
    return a


def _singular_values(x: AlgElement) -> tuple[np.ndarray, ...]:
    """Descending singular values of each block (memoized)."""
    memo = _spectral(x)
    if "sv" not in memo:
        memo["sv"] = tuple([_frozen(np.linalg.svd(m, compute_uv=False)) for m in x.blocks])
    return memo["sv"]


def hermiticity_defect(x: AlgElement) -> float:
    """Operator norm of x - x*."""
    return _each(functools.reduce(
        np.maximum, [np.linalg.svd(d, compute_uv=False)[..., 0] for d in _skew(x)]))


def lp_norm(x: AlgElement, p: float) -> float:
    """Noncommutative p-norm ||x||_p = [tau(|x|^p)]^(1/p).

    Computed from the singular values of the blocks; ``p == inf`` is the
    operator norm (largest singular value over blocks).  Requires p >= 1.
    """
    if not p >= 1:  # NaN fails too
        raise DomainError(f"p must be >= 1 or inf, got {p}")
    if p == math.inf:
        return _each(functools.reduce(np.maximum, [s[..., 0] for s in _singular_values(x)]))
    alg = x.algebra
    if p == 2:
        # tau(x* x) as a weighted Frobenius mean; same value, no SVD needed
        val = sum(w * _vdots(m) / n
                  for w, n, m in zip(alg.block_weights, alg.block_dims, x.blocks))
        return _each(np.sqrt(np.maximum(val, 0.0)))  # correctly rounded, as math.sqrt
    total = sum(w * np.sum(s ** p, axis=-1) / n
                for w, n, s in zip(alg.block_weights, alg.block_dims, _singular_values(x)))
    # a Python float power: NumPy's array power can differ from libm's by one ulp
    return _each(total, lambda t: t ** (1.0 / p))


def squared(v):
    """``v ** 2`` per element by Python's float power, as one element alone
    gets it (NumPy's array power can differ from libm's by one ulp)."""
    return _each(np.asarray(v), lambda t: t ** 2)


def abs2(x: AlgElement) -> AlgElement:
    """|x|^2 = x* x; Hermitian positive semidefinite."""
    return x.adjoint() @ x


def _hermitian_eigh(x: AlgElement, tol: float):
    memo = _spectral(x)
    gate = ("gate", tol)
    if gate not in memo:
        if not _within(_skew(x), tol):
            raise DomainError(f"element is not Hermitian within {tol:g} "
                              f"(defect {np.max(hermiticity_defect(x)):.2e})")
        memo[gate] = True
    if "eigh" not in memo:
        memo["eigh"] = tuple([(_frozen(w), _frozen(v))
                              for w, v in map(np.linalg.eigh, x.blocks)])
    return memo["eigh"]


def hermitian_apply(x: AlgElement, fn: Callable[[np.ndarray], np.ndarray]) -> AlgElement:
    """Functional calculus f(x) for Hermitian x via eigendecomposition.

    ``fn`` receives the eigenvalue vector of each block (an array of them
    for a stack), which is read-only, and must return a real array of the
    same shape.
    """
    out = []
    for w, v in _hermitian_eigh(x, HERMITIAN_TOL):
        fw = np.asarray(fn(w), dtype=float)
        out.append((v * fw[..., None, :]) @ _adj(v))
    return AlgElement(x.algebra, out)


def psd_sqrt(x: AlgElement) -> AlgElement:
    """Square root of a positive semidefinite element (negatives clipped at 0; memoized)."""
    memo = _spectral(x)
    if "sqrt" not in memo:
        memo["sqrt"] = hermitian_apply(x, lambda w: np.sqrt(np.maximum(w, 0.0)))
    return memo["sqrt"]


def stack(elements: Sequence[AlgElement]) -> AlgElement:
    """The stack of one or more elements of one algebra, in order."""
    if not len(elements):
        raise StructureError("a stack needs at least one element")
    first = elements[0]
    for e in elements:
        _check_same_algebra(first, e)
    return AlgElement(first.algebra, [np.stack(bs) for bs in zip(*(e.blocks for e in elements))])


def min_eigenvalue(x: AlgElement, tol: float = HERMITIAN_TOL) -> float:
    """Smallest eigenvalue over all blocks of a Hermitian element."""
    return _each(functools.reduce(np.minimum, [w[..., 0] for w, _ in _hermitian_eigh(x, tol)]))


def _range_projection(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The projection onto the eigenvectors (columns of ``v``) that ``mask`` selects.

    The matrices, one or a stack, are grouped by selection pattern, and each
    group is one stacked product of its selected columns, so every element
    is the product it is alone; a product of all columns with the unselected
    ones zeroed would round differently in the last bit.
    """
    n = v.shape[-1]
    flat, mask = v.reshape(-1, n, n), mask.reshape(-1, n)
    out = np.empty_like(flat)
    keys = mask @ (1 << np.arange(n))  # one integer per selection pattern
    for key in set(keys.tolist()):
        members = keys == key
        vs = flat[members][..., mask[members.argmax()]]
        out[members] = vs @ _adj(vs)
    return out.reshape(v.shape)


def spectral_projection(h: AlgElement, interval: tuple[float, float]) -> Projection:
    """Spectral projection of a Hermitian element onto ``[a, b)``.

    Eigenvalues within ``SPECTRAL_EDGE_TOL`` of either endpoint are
    included, so the lower endpoint behaves as closed and ties just above
    the upper cut are assigned below it.  ``b`` may be ``inf``, or for a
    stack an array of one upper cut per element.  Cuts that select the same
    eigenvectors return the same memoized projection.
    """
    a, b = float(interval[0]), np.asarray(interval[1], dtype=float)[..., None]
    if not (a < b).all():
        raise DomainError(f"empty interval [{a}, {b.min()})")
    eig = _hermitian_eigh(h, HERMITIAN_TOL)
    masks = [(w >= a - SPECTRAL_EDGE_TOL) & (w < b + SPECTRAL_EDGE_TOL) for w, _ in eig]
    memo = _spectral(h)
    key = ("projection", *(m.tobytes() for m in masks))  # one entry per selection pattern
    if key not in memo:
        out = [_range_projection(v, m) for (_, v), m in zip(eig, masks)]
        memo[key] = Projection(AlgElement(h.algebra, out))
    return memo[key]


def proj_meet(e: Projection, f: Projection) -> Projection:
    """Meet e ^ f: projection onto the intersection of the ranges.

    Computed per block from the near-null space of (1-e) + (1-f); exact at
    desk scale and symmetric in its arguments.
    """
    if e.algebra is not f.algebra and e.algebra != f.algebra:
        raise StructureError("projections belong to different algebras")
    out = []
    for n, eb, fb in zip(e.algebra.block_dims, e.element.blocks, f.element.blocks):
        h = (np.eye(n) - eb) + (np.eye(n) - fb)
        w, v = np.linalg.eigh(h)
        out.append(_range_projection(v, w < MEET_NULL_TOL))
    return Projection(AlgElement(e.algebra, out))
