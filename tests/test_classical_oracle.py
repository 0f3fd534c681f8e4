"""The commutative case of the Chebyshev certificate and the ratios, against
plain NumPy.

A diagonal positive element of a weighted block algebra is a random
variable on the atoms of its diagonals, atom i of block b carrying mass
w_b / n_b.  There the tail projection e_[eta, inf)(x) is the indicator of
{x >= eta}, so tau(e) = P(x >= eta), tau(x) = E x, and the compressed norm
||(1-e) x (1-e)||_inf is the largest atom below eta.  The reference side
below uses NumPy alone; thresholds stay more than 1e-9 from every atom, so
the spectral edge tolerance never decides.

Likewise a diagonal terminal on M_n, under ``block_scalar`` levels whose
groups coarsen, is a classical martingale on n equally likely atoms: X_k
is the mean of the terminal over each group of level k, and the square
function and dual Doob ratios are classical L^p ratios.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ncmart as nc

REL_TOL = 1e-15
EDGE_GAP = 1e-9


# -- the reference: NumPy formulas over the atoms, no ncmart --------------------

def tail_mass(weights, atoms, eta):
    """P(x >= eta) = sum_b w_b * #{atoms of block b >= eta} / n_b."""
    return sum(w * np.count_nonzero(a >= eta) / a.size for w, a in zip(weights, atoms))


def mean(weights, atoms):
    """E x = sum_b w_b * (sum of the atoms of block b) / n_b."""
    return sum(w * np.sum(a) / a.size for w, a in zip(weights, atoms))


def largest_below(atoms, eta):
    """The largest atom below eta, or 0 if there is none."""
    below = np.concatenate(atoms)
    below = below[below < eta]
    return float(below.max()) if below.size else 0.0


# -- the strategy -------------------------------------------------------------

ATOM = st.one_of(st.sampled_from([0.0, 1.0, 2.5]),  # ties and zeros
                 st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))


@st.composite
def diagonal_cases(draw):
    """Block weights, the diagonal of each block, and thresholds away from the atoms."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(dims), max_size=len(dims)))
    weights = [r / sum(raw) for r in raw]
    atoms = [np.array(draw(st.lists(ATOM, min_size=n, max_size=n))) for n in dims]
    flat = np.concatenate(atoms)
    away = st.floats(1e-3, 12.0).filter(lambda eta: np.all(np.abs(flat - eta) > EDGE_GAP))
    etas = draw(st.lists(away, min_size=1, max_size=8))
    return weights, atoms, etas


def close(got, want) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=diagonal_cases())
def test_chebyshev_certificate_is_the_classical_tail(case):
    weights, atoms, etas = case
    alg = nc.TracialAlgebra([a.size for a in atoms], weights)
    x = alg.element([np.diag(a) for a in atoms])
    for eta in etas:
        cert = nc.chebyshev_projection(x, eta)
        assert close(cert.trace_value, tail_mass(weights, atoms, eta))
        assert close(cert.trace_bound, mean(weights, atoms) / eta)
        assert close(cert.tail_norm, largest_below(atoms, eta))


# -- the ratio half: classical martingales on n equally likely atoms ------------

RATIO_REL_TOL = 1e-14
FLOOR = 1e-12  # a ratio whose denominator norm is at most this is undefined


def group_means(labels, a):
    """E[a | the partition into equal labels], every atom of mass 1/n."""
    out = np.empty_like(a)
    for g in np.unique(labels):
        out[labels == g] = a[labels == g].mean()
    return out


def p_norm(y, p):
    """(E |y|^p)^(1/p) on equally likely atoms."""
    return np.mean(np.abs(y) ** p) ** (1.0 / p)


def classical_ratios(chain, a, p):
    """(square-function ratio, dual Doob ratio, defined) of the martingale
    E[a | chain[k]], k = 0..m, closed by a itself, over its full grid; a
    ratio is NaN where its denominator is at most the floor."""
    values = [group_means(labels, a) for labels in chain] + [a]
    steps = [b - c for c, b in zip(values, values[1:])]
    plain = sum(d * d for d in steps)
    conditioned = sum(group_means(labels, d * d) for labels, d in zip(chain, steps))
    pairs = [(p_norm(np.sqrt(plain), p), p_norm(values[-1], p)),
             (p_norm(conditioned, p / 2), p_norm(plain, p / 2))]
    ratios = [num / den if den > FLOOR else np.nan for num, den in pairs]
    return ratios[0], ratios[1], all(den > FLOOR for _, den in pairs)


@st.composite
def coarsening_chains(draw):
    """n <= 16 atoms, an increasing chain of partitions (as one group label per
    atom, coarsest first), and a few diagonals of dyadic integers.

    Dyadic integers make every group sum exact, so an increment that is zero
    in exact arithmetic is zero in floating point, and a denominator is 0 or
    far above the floor."""
    n = draw(st.integers(1, 16))
    labels = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    chain = [labels]
    for _ in range(draw(st.integers(0, 3))):  # merge groups by relabelling them
        merge = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        chain.insert(0, np.array(merge)[chain[0]])
    scale = 2.0 ** draw(st.integers(-4, 4))
    entry = st.integers(-8, 8)
    diagonals = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3))
    if draw(st.booleans()):  # a constant diagonal, whose increments vanish
        diagonals.append([draw(entry)] * n)
    return chain, [scale * np.array(d, dtype=float) for d in diagonals]


def groups_of(labels):
    return [[tuple(np.flatnonzero(labels == g).tolist()) for g in np.unique(labels)]]


def within(got, want) -> bool:
    return bool(np.isnan(want) and np.isnan(got)) or abs(got - want) <= RATIO_REL_TOL * abs(want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=coarsening_chains())
def test_square_function_ratios_are_the_classical_ratios(case):
    assert FLOOR == nc.tolerances.DENOMINATOR_FLOOR
    chain, diagonals = case
    n = chain[0].size
    alg = nc.TracialAlgebra([n])
    levels = [nc.SubalgebraLevel.block_scalar(alg, groups_of(labels)) for labels in chain]
    levels.append(nc.SubalgebraLevel.block_full(alg, [[tuple(range(n))]]))
    filt = nc.Filtration(nc.TimeGrid(range(len(levels))), levels)
    x = nc.martingale_from_terminal(filt, nc.stack([alg.element([np.diag(d)])
                                                    for d in diagonals]))
    for p in (2.0, 3.0, 4.0, 8.0):
        bg, dd, defined = nc.square_function_ratios(x, nc.full_partition(x), p)
        for k, a in enumerate(diagonals):
            want_bg, want_dd, want_defined = classical_ratios(chain, a, p)
            assert within(bg[k], want_bg) and within(dd[k], want_dd)
            assert defined[k] == want_defined
