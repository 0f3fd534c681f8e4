"""Shared fixtures: the worked M_2 chain and a pool of algebra/filtration combos."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import ncmart as nc


@pytest.fixture
def m2():
    return nc.TracialAlgebra([2], [1.0])


@pytest.fixture
def m2_chain(m2):
    """scalars < diagonal < full on M_2 over times 0, 1, 2."""
    levels = [
        nc.SubalgebraLevel.scalars(m2),
        nc.SubalgebraLevel.block_full(m2, [[[0], [1]]]),
        nc.SubalgebraLevel.block_full(m2, [[[0, 1]]]),
    ]
    return nc.Filtration(nc.TimeGrid([0.0, 1.0, 2.0]), levels)


@pytest.fixture
def m2_terminal(m2):
    return m2.element([np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)])


@pytest.fixture
def m2_martingale(m2_chain, m2_terminal):
    """The worked example: X = (0, diag(1,-1), [[1,1],[1,-1]])."""
    return nc.martingale_from_terminal(m2_chain, m2_terminal, label="X")


def mat(m):
    return np.array(m, dtype=complex)


def single(algebra, m):
    return algebra.element([mat(m)])


def conjugated_levels(algebra, levels, seed):
    """Rebuild a level chain as general levels conjugated by one random unitary."""
    rng = np.random.Generator(np.random.Philox(seed))
    blocks = []
    for n in algebra.block_dims:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        blocks.append(q)
    u = algebra.element(blocks)
    ua = u.adjoint()
    return [nc.SubalgebraLevel.general(algebra, [u @ b @ ua for b in lv.spanning_basis()])
            for lv in levels]


def build_pool():
    """Algebra/filtration combos spanning M_2, M_4, M_2(+)M_3, M_8.

    Filtrations run from 2 to 8 levels and mix the block_full, block_scalar
    and general kinds (including a fully conjugated general chain).
    """
    combos = []

    m2 = nc.TracialAlgebra([2], [1.0])
    combos.append(("m2-2lv", _filt(m2, [
        nc.SubalgebraLevel.scalars(m2),
        nc.SubalgebraLevel.block_full(m2, [[[0, 1]]]),
    ])))
    combos.append(("m2-3lv", _filt(m2, [
        nc.SubalgebraLevel.scalars(m2),
        nc.SubalgebraLevel.block_full(m2, [[[0], [1]]]),
        nc.SubalgebraLevel.block_full(m2, [[[0, 1]]]),
    ])))

    m4 = nc.TracialAlgebra([4], [1.0])
    combos.append(("m4-7lv", _filt(m4, [
        nc.SubalgebraLevel.scalars(m4),
        nc.SubalgebraLevel.block_scalar(m4, [[[0, 1], [2, 3]]]),
        nc.SubalgebraLevel.block_scalar(m4, [[[0], [1], [2, 3]]]),
        nc.SubalgebraLevel.block_scalar(m4, [[[0], [1], [2], [3]]]),
        nc.SubalgebraLevel.block_full(m4, [[[0, 1], [2], [3]]]),
        nc.SubalgebraLevel.block_full(m4, [[[0, 1], [2, 3]]]),
        nc.SubalgebraLevel.block_full(m4, [[[0, 1, 2, 3]]]),
    ])))
    base4 = [
        nc.SubalgebraLevel.scalars(m4),
        nc.SubalgebraLevel.block_scalar(m4, [[[0, 1], [2, 3]]]),
        nc.SubalgebraLevel.block_full(m4, [[[0, 1], [2, 3]]]),
        nc.SubalgebraLevel.block_full(m4, [[[0, 1, 2, 3]]]),
    ]
    combos.append(("m4-general-4lv", _filt(m4, conjugated_levels(m4, base4, seed=2024))))

    m23 = nc.TracialAlgebra([2, 3], [0.4, 0.6])
    combos.append(("m2m3-4lv", _filt(m23, [
        nc.SubalgebraLevel.scalars(m23),
        nc.SubalgebraLevel.block_scalar(m23, [[[0, 1]], [[0, 1, 2]]]),
        nc.SubalgebraLevel.block_full(m23, [[[0], [1]], [[0, 1], [2]]]),
        nc.SubalgebraLevel.block_full(m23, [[[0, 1]], [[0, 1, 2]]]),
    ])))
    mid23 = nc.SubalgebraLevel.block_full(m23, [[[0], [1]], [[0, 1], [2]]])
    combos.append(("m2m3-6lv", _filt(m23, [
        nc.SubalgebraLevel.scalars(m23),
        nc.SubalgebraLevel.block_scalar(m23, [[[0, 1]], [[0, 1, 2]]]),
        nc.SubalgebraLevel.block_scalar(m23, [[[0], [1]], [[0, 1, 2]]]),
        nc.SubalgebraLevel.block_full(m23, [[[0], [1]], [[0], [1], [2]]]),
        nc.SubalgebraLevel.general(m23, list(mid23.spanning_basis())),
        nc.SubalgebraLevel.block_full(m23, [[[0, 1]], [[0, 1, 2]]]),
    ])))

    m8 = nc.TracialAlgebra([8], [1.0])
    half = nc.SubalgebraLevel.block_full(m8, [[[0, 1, 2, 3], [4, 5, 6, 7]]])
    combos.append(("m8-8lv", _filt(m8, [
        nc.SubalgebraLevel.scalars(m8),
        nc.SubalgebraLevel.block_scalar(m8, [[[0, 1, 2, 3], [4, 5, 6, 7]]]),
        nc.SubalgebraLevel.block_scalar(m8, [[[0, 1], [2, 3], [4, 5, 6, 7]]]),
        nc.SubalgebraLevel.block_scalar(m8, [[[0, 1], [2, 3], [4, 5], [6, 7]]]),
        nc.SubalgebraLevel.block_full(m8, [[[0, 1], [2, 3], [4, 5], [6, 7]]]),
        nc.SubalgebraLevel.block_full(m8, [[[0, 1], [2, 3], [4, 5, 6, 7]]]),
        nc.SubalgebraLevel.general(m8, list(half.spanning_basis())),
        nc.SubalgebraLevel.block_full(m8, [[[0, 1, 2, 3, 4, 5, 6, 7]]]),
    ])))
    combos.append(("m8-3lv", _filt(m8, [
        nc.SubalgebraLevel.scalars(m8),
        half,
        nc.SubalgebraLevel.block_full(m8, [[[0, 1, 2, 3, 4, 5, 6, 7]]]),
    ])))
    return combos


def _filt(algebra, levels):
    times = [float(t) for t in range(len(levels))]
    return nc.Filtration(nc.TimeGrid(times), levels)


@pytest.fixture(scope="session")
def pool():
    return build_pool()


def centered_terminal(algebra, rng):
    """Random terminal with zero trace, so scalars-first martingales start at 0."""
    x = nc.random_element(algebra, rng, "general")
    return x - nc.trace(x) * algebra.identity()


def count_linalg(monkeypatch):
    """Count the calls of numpy.linalg.svd and numpy.linalg.eigh from now on."""
    counts = Counter()
    for name in ("svd", "eigh"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts
