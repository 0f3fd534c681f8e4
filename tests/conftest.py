"""Shared fixtures: the worked M_2 chain, a pool of algebra/filtration combos
and a Hypothesis strategy for configs on random nested chains."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as st

import ncmart as nc
from ncmart.harness import load_config


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
    return nc.martingale_from_terminal(m2_chain, m2_terminal)


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
    return [nc.SubalgebraLevel.general(algebra, u @ lv.spanning_basis() @ ua) for lv in levels]


def _partition(draw, n):
    """A coarse partition of range(n) and a refinement of it, as group lists."""
    fine = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    labels = sorted(set(fine))
    merge = draw(st.lists(st.integers(0, len(labels) - 1),
                          min_size=len(labels), max_size=len(labels)))
    coarse = [merge[labels.index(f)] for f in fine]

    def groups(lab):
        return [[i for i in range(n) if lab[i] == v] for v in sorted(set(lab))]
    return groups(coarse), groups(fine)


def encode_basis(basis):
    """The config entries of a level's stacked basis, one per element."""
    return [[{"real": m.real.tolist(), "imag": m.imag.tolist()} for m in mats]
            for mats in zip(*basis.blocks)]


@st.composite
def structures(draw):
    """A config on 1-3 blocks of size <= 4 with random weights whose chain is
    scalars < block_scalar(P1) < block_full(P2) < full with P2 refining P1,
    every level conjugated by one unitary (so `general`) with probability 1/3."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=len(dims), max_size=len(dims)))
    weights = [w / sum(raw) for w in raw]
    parts = [_partition(draw, n) for n in dims]
    levels = [{"kind": "scalars"},
              {"kind": "block_scalar", "groups": [coarse for coarse, _ in parts]},
              {"kind": "block_full", "groups": [fine for _, fine in parts]},
              {"kind": "block_full", "groups": [[list(range(n))] for n in dims]}]
    if draw(st.integers(0, 2)) == 0:
        algebra = nc.TracialAlgebra(dims, weights)
        built = [nc.SubalgebraLevel(algebra, lv["kind"], lv.get("groups"))
                 for lv in levels]
        conj = conjugated_levels(algebra, built, draw(st.integers(0, 2**16)))
        levels = [{"kind": "general", "basis": encode_basis(lv.basis)} for lv in conj]
    instances = draw(st.sampled_from([1, 3]))
    return load_config({
        "algebra": {"block_dims": dims, "block_weights": weights},
        "times": [0.0, 1.0, 2.0, 3.0], "levels": levels,
        "seed": draw(st.integers(0, 2**16)), "instances": instances,
        "p_values": [2.0, 3.0, 4.0, 8.0],
    })


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
        nc.SubalgebraLevel.general(m23, mid23.spanning_basis()),
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
        nc.SubalgebraLevel.general(m8, half.spanning_basis()),
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


def nan_element(algebra):
    """An element of ``algebra`` whose first diagonal entry is NaN, the rest 0."""
    blocks = [np.zeros((n, n), dtype=complex) for n in algebra.block_dims]
    blocks[0][0, 0] = np.nan
    return algebra.element(blocks)


def nan_on_call(monkeypatch, owner, name, call):
    """Patch ``owner.<name>`` so that its ``call``-th call (from 1) returns NaN.

    For a residual term that NaN data cannot reach: such data stops at an
    earlier precondition gate or LAPACK error first.
    """
    real = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        return math.nan if len(calls) == call else real(*args, **kwargs)
    monkeypatch.setattr(owner, name, patched)


def nan_tolerant(monkeypatch, owner, name):
    """Patch the spectral function ``owner.<name>`` to return NaN for an
    element with a NaN entry, where the real one raises LinAlgError."""
    real = getattr(owner, name)

    def patched(x, *args, **kwargs):
        if any(np.isnan(b).any() for b in x.blocks):
            return math.nan
        return real(x, *args, **kwargs)
    monkeypatch.setattr(owner, name, patched)
