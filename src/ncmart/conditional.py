"""Trace-preserving conditional expectations onto subalgebras.

Every expectation here is the orthogonal projection in the trace inner
product ``<a, b> = tau(a* b)``; for a *-subalgebra containing the identity
of a finite-dimensional tracial algebra that projection is automatically
the unique trace-preserving conditional expectation.  Partition-structured
subalgebras get closed forms; arbitrary spanned subalgebras go through a
Gram-system engine with a cached orthonormal basis.
"""

from __future__ import annotations

import operator

import numpy as np

from .algebra import AlgElement, TracialAlgebra, lp_norm, stack, trace
from .errors import IllConditionedBasisError, StructureError
from .tolerances import COND_LIMIT, INCLUSION_TOL

LEVEL_KINDS = ("scalars", "block_scalar", "block_full", "general")


def _coordinate(i) -> int:
    if isinstance(i, bool):  # an int to operator.index, but no coordinate
        raise TypeError("a boolean is not a coordinate")
    return operator.index(i)


def _normalize_groups(algebra: TracialAlgebra, groups) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Validate a per-block coordinate partition and freeze it as tuples."""
    try:
        groups = [[tuple(_coordinate(i) for i in g) for g in block] for block in groups]
    except TypeError:
        raise StructureError("groups must list, per block, lists of integer coordinates")
    if len(groups) != algebra.nblocks:
        raise StructureError(f"need one partition per block, got {len(groups)}")
    normalized = []
    for n, block_groups in zip(algebra.block_dims, groups):
        seen: set[int] = set()
        frozen = []
        for idx in block_groups:
            if not idx:
                raise StructureError("empty coordinate group")
            if any(i < 0 or i >= n for i in idx):
                raise StructureError(f"coordinate out of range for block of size {n}: {idx}")
            if seen & set(idx):
                raise StructureError(f"overlapping coordinate groups: {idx}")
            seen |= set(idx)
            frozen.append(idx)
        if seen != set(range(n)):
            raise StructureError(f"groups do not cover all {n} coordinates")
        normalized.append(tuple(frozen))
    return tuple(normalized)


class SubalgebraLevel:
    """A unital *-subalgebra together with its expectation engine.

    Use the classmethod constructors: :meth:`scalars`, :meth:`block_scalar`,
    :meth:`block_full`, :meth:`general`.
    """

    def __init__(self, algebra: TracialAlgebra, kind: str, groups=None, basis=None):
        if kind not in LEVEL_KINDS:
            raise StructureError(f"unknown level kind {kind!r}")
        self.algebra = algebra
        self.kind = kind
        self.groups = None
        self.basis: AlgElement | None = None  # general: a stack of one element per vector
        self._masks = None       # block_full: boolean same-group masks per block
        self._index = None       # block_scalar: (flat diagonal positions, size) per group
        self._onb = None         # general: orthonormal rows in scaled-vec space
        self._onb_conj = None
        self._scales = [np.sqrt(w / n)
                        for w, n in zip(algebra.block_weights, algebra.block_dims)]
        self._span_cache: AlgElement | None = None
        self._general_cache: SubalgebraLevel | None = None

        if kind in ("block_scalar", "block_full"):
            if groups is None:
                raise StructureError(f"{kind} level requires a coordinate partition")
            self.groups = _normalize_groups(algebra, groups)
            if kind == "block_scalar":
                self._index = [[(np.array(g) * (n + 1), len(g)) for g in block_groups]
                               for n, block_groups in zip(algebra.block_dims, self.groups)]
            else:
                self._masks = []
                for n, block_groups in zip(algebra.block_dims, self.groups):
                    mask = np.zeros((n, n), dtype=bool)
                    for g in block_groups:
                        ix = np.array(g)
                        mask[np.ix_(ix, ix)] = True
                    self._masks.append(mask)
        elif kind == "general":
            if not isinstance(basis, AlgElement):
                raise StructureError("general level requires its basis as one stack")
            if basis.algebra != algebra:
                raise StructureError("basis from a different algebra")
            if not basis.blocks[0].size:
                raise StructureError("general level requires a nonempty basis")
            self.basis = basis
            self._build_onb()
            self._validate_general()

    # -- constructors ----------------------------------------------------

    @classmethod
    def scalars(cls, algebra: TracialAlgebra) -> "SubalgebraLevel":
        """C*1: the trivial subalgebra of scalar multiples of the identity."""
        return cls(algebra, "scalars")

    @classmethod
    def block_scalar(cls, algebra: TracialAlgebra, groups) -> "SubalgebraLevel":
        """One scalar per coordinate group: span of the group projections."""
        return cls(algebra, "block_scalar", groups=groups)

    @classmethod
    def block_full(cls, algebra: TracialAlgebra, groups) -> "SubalgebraLevel":
        """All matrices supported on the diagonal group blocks."""
        return cls(algebra, "block_full", groups=groups)

    @classmethod
    def general(cls, algebra: TracialAlgebra, basis: AlgElement) -> "SubalgebraLevel":
        """Subalgebra spanned by the elements of the stack ``basis``; must be
        *-closed and contain 1."""
        return cls(algebra, "general", basis=basis)

    # -- Gram engine ------------------------------------------------------

    def _uvec(self, x: AlgElement) -> np.ndarray:
        """Flatten to vectors in which the trace inner product is standard."""
        return np.concatenate([s * m.reshape(m.shape[:-2] + (-1,))
                               for s, m in zip(self._scales, x.blocks)], axis=-1)

    def _unvec(self, v: np.ndarray) -> AlgElement:
        alg = self.algebra
        out, pos = [], 0
        for s, n in zip(self._scales, alg.block_dims):
            out.append(v[..., pos:pos + n * n].reshape(v.shape[:-1] + (n, n)) / s)
            pos += n * n
        return AlgElement(alg, out)

    def _build_onb(self) -> None:
        rows = self._uvec(self.basis).reshape(-1, self.algebra.dim)
        gram = rows @ rows.conj().T
        w, v = np.linalg.eigh(gram)
        wmax = float(w[-1])
        wmin = float(w[0])
        cond = np.inf if wmin <= 0 else wmax / wmin
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise IllConditionedBasisError("linearly dependent subalgebra basis", cond)
        self._onb = (v.conj().T @ rows) / np.sqrt(w)[:, None]
        self._onb_conj = self._onb.conj()

    def _validate_general(self) -> None:
        if not self.contains(self.algebra.identity()):
            raise StructureError("identity is not in the span of the basis")
        if not np.all(self.contains(self.basis.adjoint())):  # NaN fails too
            raise StructureError("basis is not *-closed within tolerance")

    # -- expectation ------------------------------------------------------

    def expect(self, x: AlgElement) -> AlgElement:
        """Orthogonal projection of x onto the subalgebra.

        Closed forms: scalars -> tau(x)*1; block_full -> pinching by the
        group blocks; block_scalar -> group-normalized trace on each group.
        The general kind solves the Gram system through the cached
        orthonormal basis.
        """
        if x.algebra is not self.algebra and x.algebra != self.algebra:
            raise StructureError("element from a different algebra")
        if self.kind == "scalars":
            t = np.asarray(trace(x))[..., None, None]
            return AlgElement(self.algebra, [t * one for one in self.algebra.identity().blocks])
        if self.kind == "block_full":
            return AlgElement(self.algebra,
                              [np.where(mask, m, 0.0) for mask, m in zip(self._masks, x.blocks)])
        if self.kind == "block_scalar":
            out = []
            for n, index, m in zip(self.algebra.block_dims, self._index, x.blocks):
                flat = m.reshape(m.shape[:-2] + (n * n,))
                r = np.zeros(flat.shape, dtype=complex)
                for pos, size in index:
                    # take() keeps each group's diagonal contiguous, so it is
                    # summed in the same order for one element and for a stack
                    r[..., pos] = flat.take(pos, axis=-1).sum(axis=-1, keepdims=True) / size
                out.append(r.reshape(m.shape))
            return AlgElement(self.algebra, out)
        # matrix times a column per element; v @ onb.T would round differently
        coeff = self._onb_conj @ self._uvec(x)[..., None]
        return self._unvec((self._onb.T @ coeff)[..., 0])

    def contains(self, x: AlgElement) -> bool:
        """Whether x lies in the subalgebra within ``INCLUSION_TOL``; per element of a stack."""
        return lp_norm(self.expect(x) - x, 2) <= INCLUSION_TOL

    @property
    def dim(self) -> int:
        if self.kind == "scalars":
            return 1
        if self.kind == "block_scalar":
            return sum(len(bg) for bg in self.groups)
        if self.kind == "block_full":
            return sum(len(g) ** 2 for bg in self.groups for g in bg)
        return self._onb.shape[0]

    def spanning_basis(self) -> AlgElement:
        """A basis of the subalgebra as a stack, one element per vector
        (canonical for the closed-form kinds: the unit matrices of each group
        block, block by block and group by group)."""
        if self._span_cache is not None:
            return self._span_cache
        alg = self.algebra
        if self.kind == "scalars":
            basis = stack([alg.identity()])
        elif self.kind == "general":
            basis = self.basis
        else:
            blocks, k = [], 0
            for n, block_groups in zip(alg.block_dims, self.groups):
                m = np.zeros((self.dim, n, n), dtype=complex)
                for g in block_groups:
                    ix = np.array(g)
                    if self.kind == "block_scalar":
                        m[k, ix, ix] = 1.0
                        k += 1
                    else:  # the entries (i, j) of the group, i major
                        size = len(g) ** 2
                        m[np.arange(k, k + size), np.repeat(ix, len(g)), np.tile(ix, len(g))] = 1.0
                        k += size
                blocks.append(m)
            basis = AlgElement(alg, blocks)
        self._span_cache = basis
        return basis

    def as_general(self) -> "SubalgebraLevel":
        """The same subalgebra rebuilt on the Gram engine (for cross-checks), cached."""
        if self._general_cache is None:
            self._general_cache = SubalgebraLevel.general(self.algebra, self.spanning_basis())
        return self._general_cache

    def __repr__(self) -> str:
        return f"SubalgebraLevel(kind={self.kind!r}, dim={self.dim})"

