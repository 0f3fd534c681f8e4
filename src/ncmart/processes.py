"""Time grids, filtrations, adapted processes and martingales.

Time is a finite grid; between grid points every filtration level and
every process value is constant, so refining-partition limits elsewhere in
the package become exact once a partition contains all grid indices.
Every discrete stochastic sum of the package is a running sum of terms in
the :func:`increments` of a process, folded by :func:`partial_sums` alone,
and :meth:`AdaptedProcess.squares` is the one source of |X(t_k)|^2.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Sequence

import numpy as np

from .algebra import AlgElement, TracialAlgebra, _adj, abs2, lp_norm, min_eigenvalue
from .conditional import SubalgebraLevel
from .errors import DomainError, StructureError
from .tolerances import ADAPTED_TOL, LOEWNER_HERMITIAN_TOL, MARTINGALE_TOL, worst


class TimeGrid:
    """Strictly increasing, finite, nonnegative times ``t_0 < t_1 < ... < t_m``."""

    def __init__(self, times: Sequence[float]):
        ts = tuple(float(t) for t in times)
        if len(ts) < 2:
            raise StructureError("a time grid needs at least two points")
        if not np.all(np.isfinite(ts)):
            raise StructureError(f"times must be finite, got {list(ts)}")
        if ts[0] < 0 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise StructureError("times must be nonnegative and strictly increasing")
        self.times = ts

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return f"TimeGrid({list(self.times)})"


class Filtration:
    """Increasing chain of subalgebra levels, one per grid time.

    Construction validates that each level's spanning basis, as one stack,
    is fixed elementwise by the next level's expectation (inclusion within
    ``INCLUSION_TOL``) and that the final level is the full algebra.
    """

    def __init__(self, grid: TimeGrid, levels: Sequence[SubalgebraLevel]):
        levels = tuple(levels)
        if len(levels) != len(grid):
            raise StructureError("need exactly one level per grid time")
        algebra = levels[0].algebra
        for k, lv in enumerate(levels):
            if lv.algebra != algebra:
                raise StructureError(f"level {k} lives in a different algebra")
        for k in range(len(levels) - 1):
            if levels[k] is levels[k + 1]:
                continue
            if not np.all(levels[k + 1].contains(levels[k].spanning_basis())):
                raise StructureError(
                    f"levels not increasing: level {k} is not contained in level {k + 1}")
        if levels[-1].dim != algebra.dim:
            raise StructureError(
                f"final level has dimension {levels[-1].dim}, expected full {algebra.dim}")
        self.grid = grid
        self.levels = levels
        self.algebra = algebra

    def level_index_at(self, time: float) -> int:
        """Index of the largest grid time <= ``time`` (step filtration)."""
        ts = self.grid.times
        if not time >= ts[0]:  # NaN fails too
            raise DomainError(f"time {time} precedes the grid")
        return int(np.searchsorted(ts, time, side="right")) - 1

    def __len__(self) -> int:
        return len(self.levels)

    def __repr__(self) -> str:
        return f"Filtration(times={len(self.grid)}, dims={[lv.dim for lv in self.levels]})"


class AdaptedProcess:
    """Sequence of algebra elements adapted to a filtration.

    Construction rejects values that are not fixed by their level's
    expectation within ``ADAPTED_TOL``, for every element of a stack.
    Supports pointwise linear arithmetic between processes on the same
    filtration and the pointwise adjoint.  A process
    never changes, so its martingale residual, its squares, its squared
    increments over the full grid and its square sums are computed once and kept.
    """

    def __init__(self, filtration: Filtration, values: Sequence[AlgElement],
                 validate: bool = True):
        values = tuple(values)
        if len(values) != len(filtration):
            raise StructureError("need exactly one value per grid time")
        for k, v in enumerate(values):
            if v.algebra != filtration.algebra:
                raise StructureError(f"value {k} from a different algebra")
        if validate:
            for k, v in enumerate(values):
                gap = lp_norm(filtration.levels[k].expect(v) - v, 2)
                if not np.all(gap <= ADAPTED_TOL):  # every element of a stack; NaN fails
                    raise StructureError(f"value {k} is not adapted "
                                         f"(residual {np.max(gap):.2e} > {ADAPTED_TOL:g})")
        self.filtration = filtration
        self.values = values
        self._mart_residual: float | None = None
        self._squares: tuple[AlgElement, ...] | None = None
        self._increment_squares: tuple[AlgElement, ...] | None = None
        self._square_sums: dict[tuple[int, ...], tuple[AlgElement, AlgElement]] = {}

    def _combine(self, other: "AdaptedProcess", op) -> "AdaptedProcess":
        if not isinstance(other, AdaptedProcess):
            return NotImplemented
        if self.filtration is not other.filtration:
            raise StructureError("processes live on different filtrations")
        return AdaptedProcess(self.filtration,
                              [op(a, b) for a, b in zip(self.values, other.values)],
                              validate=False)

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        return AdaptedProcess(self.filtration, [scalar * v for v in self.values], validate=False)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def adjoint(self) -> "AdaptedProcess":
        return AdaptedProcess(self.filtration, [v.adjoint() for v in self.values],
                              validate=False)

    def martingale_residual(self) -> float:
        """max over s < t of ||E_s X(t) - X(s)||_2 (cached); per element of a stack."""
        if self._mart_residual is None:
            levels, values = self.filtration.levels, self.values
            self._mart_residual = worst(lp_norm(levels[s].expect(values[t]) - values[s], 2)
                                        for t in range(1, len(values)) for s in range(t))
        return self._mart_residual

    def squares(self) -> tuple[AlgElement, ...]:
        """|X(t_k)|^2 for every grid index k (cached)."""
        if self._squares is None:
            self._squares = tuple(abs2(v) for v in self.values)
        return self._squares

    def increment_squares(self, partition: Iterable[int]) -> tuple[AlgElement, ...]:
        """|dX_k|^2 over the partition, kept only for the full grid, which checks reread."""
        idx = as_partition(len(self.values), partition)
        if len(idx) < len(self.values):
            return tuple(abs2(dx) for dx in increments(self, idx))
        if self._increment_squares is None:
            self._increment_squares = tuple(abs2(dx) for dx in increments(self, idx))
        return self._increment_squares

    def square_sums(self, partition: Iterable[int]) -> tuple[AlgElement, AlgElement]:
        """(sum_k |dX_k|^2, sum_k E_{k-1}|dX_k|^2) over the partition (cached)."""
        idx = as_partition(len(self.values), partition)
        if idx not in self._square_sums:
            levels, algebra = self.filtration.levels, self.filtration.algebra
            sqs = self.increment_squares(idx)
            self._square_sums[idx] = (
                partial_sums(algebra, sqs)[-1],
                partial_sums(algebra, (levels[i].expect(sq) for i, sq in zip(idx, sqs)))[-1])
        return self._square_sums[idx]

    def __repr__(self) -> str:
        return f"AdaptedProcess({len(self.values)} values)"


def martingale_from_terminal(filtration: Filtration, x_terminal: AlgElement) -> AdaptedProcess:
    """Closed martingale X(t_k) = E_k(x); a martingale by the tower property.
    A terminal (any element of a stack) with a non-finite entry is a DomainError."""
    if not all(np.isfinite(b).all() for b in x_terminal.blocks):
        raise DomainError("a martingale needs a finite terminal")
    values = [lv.expect(x_terminal) for lv in filtration.levels]
    return AdaptedProcess(filtration, values, validate=False)


def require_martingale(p: AdaptedProcess, what: str) -> None:
    """Raise DomainError unless ``p`` (every element of a stack) is a martingale
    to within ``MARTINGALE_TOL``."""
    res = p.martingale_residual()
    if not np.all(res <= MARTINGALE_TOL):  # a NaN residual fails too
        raise DomainError(f"{what} needs a martingale (residual {np.max(res):.2e})")


def submartingale_abs2_defect(p: AdaptedProcess) -> float:
    """Worst negative-eigenvalue margin of E_s|X(t)|^2 - |X(s)|^2 over s <= t."""
    levels, sq = p.filtration.levels, p.squares()
    return worst(-min_eigenvalue(levels[s].expect(sq[t]) - sq[s], tol=LOEWNER_HERMITIAN_TOL)
                 for t in range(1, len(sq)) for s in range(t))


def as_partition(n_times: int, partition: Iterable[int]) -> tuple[int, ...]:
    """Validate a partition: strictly increasing integer grid indices, at least two."""
    partition = tuple(partition)
    try:
        idx = tuple(map(operator.index, partition))
    except TypeError:
        raise DomainError(f"partition indices must be integers: {partition}") from None
    if len(idx) < 2:
        raise DomainError("a partition needs at least two indices")
    if any(i < 0 or i >= n_times for i in idx):
        raise DomainError(f"partition index out of range 0..{n_times - 1}: {idx}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise DomainError(f"partition indices must be strictly increasing: {idx}")
    return idx


def full_partition(p: AdaptedProcess | Filtration) -> tuple[int, ...]:
    n = len(p.values) if isinstance(p, AdaptedProcess) else len(p)
    return tuple(range(n))


def increments(p: AdaptedProcess, partition: Iterable[int]) -> list[AlgElement]:
    """Increments X(t_k) - X(t_{k-1}) over consecutive partition indices."""
    idx = as_partition(len(p.values), partition)
    return [p.values[b] - p.values[a] for a, b in zip(idx, idx[1:])]


def partial_sums(algebra: TracialAlgebra, terms: Iterable[AlgElement]) -> list[AlgElement]:
    """Running sums ``[0, t_1, t_1 + t_2, ...]``, each term added to the sum before
    it: the one fold of elements, whose last entry is the sum of the terms."""
    sums = [algebra.zero()]
    for t in terms:
        sums.append(sums[-1] + t)
    return sums


RANDOM_KINDS = ("general", "hermitian", "positive", "projection-like")

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


def _hash(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words: (the hashed words, the next constant)."""
    words = words ^ np.uint32(const)
    const = const * mult & _MASK32
    words = words * np.uint32(const)
    return words ^ (words >> np.uint32(16)), const


def _child_keys(seed: int, n: int) -> np.ndarray:
    """The (n, 2) uint64 Philox keys of ``SeedSequence(seed).spawn(n)``, in one pass.

    Child i's pool is the parent's pool with the spawn word i mixed into each
    pool word, hashed by the constant as the parent's mixing leaves it: after
    4 + 12 hashes for a seed of up to four 32-bit words (fill the pool of four,
    mix it), and 4 more per further word.  Its key is
    ``generate_state(2, uint64)`` of that pool.
    """
    pool = np.random.SeedSequence(seed).pool
    words = -(-operator.index(seed).bit_length() // 32)
    const = _INIT_A * pow(_MULT_A, 4 * words if words > 4 else 16, 1 << 32) & _MASK32
    spawn, const_b, state = np.arange(n, dtype=np.uint32), _INIT_B, []
    for word in pool:
        hashed, const = _hash(spawn, const, _MULT_A)
        mixed = np.uint32(_MIX_MULT_L * int(word) & _MASK32) - np.uint32(_MIX_MULT_R) * hashed
        out, const_b = _hash(mixed ^ (mixed >> np.uint32(16)), const_b, _MULT_B)
        state.append(out.astype(np.uint64))
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(state[0::2], state[1::2])],
                    axis=1)


@functools.cache
def _fixed_key_sequence() -> type:
    """A seed sequence that hands Philox a precomputed key; made on first use,
    so importing ncmart does not import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedKey(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for its (2,) uint64 key only
    return FixedKey


def spawn_generators(seed: int, n: int) -> list[np.random.Generator]:
    """n independent counter-based streams for reproducible parallel sweeps.

    Stream i is the Philox stream of ``SeedSequence(seed).spawn(n)[i]`` bit for
    bit, for a seed of any size; every key comes from one vectorized pass.
    Each stream's ``bit_generator.seed_seq`` is a fixed-key sequence with no
    ``.spawn()``; nothing in ncmart reads it.
    """
    fixed_key, philox, generator = _fixed_key_sequence(), np.random.Philox, np.random.Generator
    return [generator(philox(fixed_key(key))) for key in _child_keys(seed, n)]


def random_stack(algebra: TracialAlgebra, rngs: Sequence[np.random.Generator],
                 kind: str = "general") -> AlgElement:
    """A stack of seeded random elements, element k drawn from stream ``rngs[k]``.

    Each stream draws, per block of size n, its n*n real parts, its n*n
    imaginary parts and, for ``projection-like``, its rank, into one buffer
    row per stream; the rest acts on the whole stack.  Kinds as in
    :func:`random_element`, which is the case of one stream.
    """
    if kind not in RANDOM_KINDS:
        raise DomainError(f"unknown random kind {kind!r}")
    blocks = []
    for n in algebra.block_dims:
        buf, ranks = np.empty((len(rngs), 2 * n * n)), []
        for rng, row in zip(rngs, buf):
            rng.standard_normal(out=row)
            if kind == "projection-like":
                ranks.append(int(rng.integers(1, n + 1)))
        parts = buf.reshape(-1, 2, n, n)
        g = (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0)
        if kind == "general":
            blocks.append(g)
        elif kind == "hermitian":
            blocks.append((g + _adj(g)) / 2.0)
        elif kind == "positive":
            # BLAS does not guarantee bitwise conjugate symmetry of g* g
            h = _adj(g) @ g
            blocks.append((h + _adj(h)) / 2.0)
        else:
            q, _ = np.linalg.qr(g)
            p = np.stack([m[:, :r] @ m[:, :r].conj().T for m, r in zip(q, ranks)])
            blocks.append((p + _adj(p)) / 2.0)
    return AlgElement(algebra, blocks)


def random_element(algebra: TracialAlgebra, seed, kind: str = "general") -> AlgElement:
    """Seeded random element with standard complex Gaussian entries per block.

    Kinds: ``general`` (plain Ginibre blocks), ``hermitian`` ((g+g*)/2),
    ``positive`` (g* g), ``projection-like`` (range projection of a random
    isometry, rank chosen uniformly in 1..n).  Deterministic for a fixed
    seed; pass a Generator to draw several elements from one stream.
    """
    one = random_stack(algebra, [_as_generator(seed)], kind)
    return AlgElement(algebra, [b[0] for b in one.blocks])


def refine_times(times: Sequence[float], inserts_per_gap: int = 1) -> tuple[float, ...]:
    """Original times plus ``inserts_per_gap`` evenly spaced points per gap."""
    out = []
    for a, b in zip(times, times[1:]):
        out.append(float(a))
        for j in range(1, inserts_per_gap + 1):
            out.append(float(a) + (float(b) - float(a)) * j / (inserts_per_gap + 1))
    out.append(float(times[-1]))
    return tuple(out)


def refined_filtration(filtration: Filtration,
                       new_times: Sequence[float]) -> tuple[Filtration, tuple[int, ...]]:
    """Embed a step filtration into a finer grid containing its times.

    Each new time reuses the level of the largest original grid time below
    or equal to it.  Returns the refined filtration and the source index of
    every new grid point.
    """
    old = filtration.grid.times
    newgrid = TimeGrid(new_times)
    if not set(old) <= set(newgrid.times):
        raise DomainError("refined grid must contain every original time")
    src = tuple(filtration.level_index_at(t) for t in newgrid.times)
    levels = [filtration.levels[k] for k in src]
    return Filtration(newgrid, levels), src


def lift_process(p: AdaptedProcess, refined: Filtration,
                 src: Sequence[int]) -> AdaptedProcess:
    """Constant-in-between embedding of a process onto a refined filtration."""
    return AdaptedProcess(refined, [p.values[k] for k in src], validate=False)
