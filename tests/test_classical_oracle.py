"""The commutative case of the Chebyshev certificate, against plain NumPy.

A diagonal positive element of a weighted block algebra is a random
variable on the atoms of its diagonals, atom i of block b carrying mass
w_b / n_b.  There the tail projection e_[eta, inf)(x) is the indicator of
{x >= eta}, so tau(e) = P(x >= eta), tau(x) = E x, and the compressed norm
||(1-e) x (1-e)||_inf is the largest atom below eta.  The reference side
below uses NumPy alone; thresholds stay more than 1e-9 from every atom, so
the spectral edge tolerance never decides.
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
