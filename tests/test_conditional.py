"""Conditional expectations: closed forms, Gram engine, identities."""

import math

import numpy as np
import pytest

import ncmart as nc
from ncmart import conditional
from conftest import nan_on_call, single

Level = nc.SubalgebraLevel


@pytest.fixture
def m23():
    return nc.TracialAlgebra([2, 3], [0.4, 0.6])


class TestClosedForms:
    def test_scalars(self, m2):
        x = single(m2, [[1, 2], [3, 4]])
        out = Level.scalars(m2).expect(x)
        assert nc.lp_norm(out - 2.5 * m2.identity(), 2) < 1e-14

    def test_block_full_diagonal(self, m2):
        x = single(m2, [[1, 2], [3, 4]])
        out = Level.block_full(m2, [[[0], [1]]]).expect(x)
        assert nc.lp_norm(out - single(m2, [[1, 0], [0, 4]]), 2) < 1e-14

    def test_general_matches_closed_form(self, m2):
        basis = nc.stack([m2.identity(), single(m2, [[1, 0], [0, -1]])])
        out = Level.general(m2, basis).expect(single(m2, [[1, 2], [3, 4]]))
        assert nc.lp_norm(out - single(m2, [[1, 0], [0, 4]]), 2) < 1e-10

    def test_block_scalar_group_means(self, m23):
        x = m23.element([np.array([[1, 9], [9, 3]]), np.diag([1.0, 2.0, 6.0])])
        out = Level.block_scalar(m23, [[[0, 1]], [[0, 1], [2]]]).expect(x)
        want = m23.element([np.eye(2) * 2.0, np.diag([1.5, 1.5, 6.0])])
        assert nc.lp_norm(out - want, 2) < 1e-14

    def test_block_full_pinching(self, m23):
        x = nc.random_element(m23, 3)
        level = Level.block_full(m23, [[[0], [1]], [[0, 1], [2]]])
        out = level.expect(x)
        b0 = np.diag(np.diag(x.blocks[0]))
        b1 = x.blocks[1].copy()
        b1[0:2, 2] = 0
        b1[2, 0:2] = 0
        assert nc.lp_norm(out - m23.element([b0, b1]), 2) < 1e-14


class TestEngineAgreement:
    @pytest.mark.parametrize("seed", range(5))
    def test_gram_equals_closed_forms(self, m23, seed):
        levels = [
            Level.scalars(m23),
            Level.block_scalar(m23, [[[0, 1]], [[0], [1, 2]]]),
            Level.block_full(m23, [[[0], [1]], [[0, 1], [2]]]),
        ]
        x = nc.random_element(m23, seed)
        for level in levels:
            twin = level.as_general()
            assert nc.lp_norm(level.expect(x) - twin.expect(x), 2) < 1e-10
            assert level.as_general() is twin  # built once per level

    def test_onb_of_the_stacked_basis_is_that_of_its_elements(self, pool):
        # the Gram engine builds its ONB from the whole stack at once; it equals,
        # byte for byte, the ONB of the per-element rows
        for name, filt in pool:
            for level in filt.levels:
                twin = level if level.kind == "general" else level.as_general()
                rows = np.stack([twin._uvec(twin.algebra.element(mats))
                                 for mats in zip(*twin.basis.blocks)])
                w, v = np.linalg.eigh(rows @ rows.conj().T)
                onb = (v.conj().T @ rows) / np.sqrt(w)[:, None]
                assert twin._onb.tobytes() == onb.tobytes(), (name, level)

    def test_spanning_basis_is_one_stack_of_unit_matrices(self, m23):
        def unit(b, entries):
            blocks = [np.zeros((n, n), dtype=complex) for n in m23.block_dims]
            for i, j in entries:
                blocks[b][i, j] = 1.0
            return blocks
        want = {
            "scalars": [[np.eye(2), np.eye(3)]],
            "block_scalar": [unit(0, [(0, 0)]), unit(0, [(1, 1)]),
                             unit(1, [(0, 0), (1, 1)]), unit(1, [(2, 2)])],
            "block_full": [unit(0, [(0, 0)]), unit(0, [(1, 1)]),
                           *(unit(1, [(i, j)]) for i in (0, 1) for j in (0, 1)),
                           unit(1, [(2, 2)])],
        }
        groups = [[[0], [1]], [[0, 1], [2]]]
        for level in (Level.scalars(m23), Level.block_scalar(m23, groups),
                      Level.block_full(m23, groups)):
            basis = level.spanning_basis()
            assert isinstance(basis, nc.AlgElement) and level.spanning_basis() is basis
            assert [b.shape[0] for b in basis.blocks] == [level.dim] * 2
            for got, expected in zip(basis.blocks, zip(*want[level.kind])):
                assert np.array_equal(got, np.stack(expected)), level.kind

    def test_lstsq_oracle(self, m23):
        # independent least-squares projection onto the span
        level = Level.block_scalar(m23, [[[0, 1]], [[0, 1, 2]]])
        basis = level.spanning_basis().blocks  # one (dim, n, n) array per block
        x = nc.random_element(m23, 77)
        scales = [math.sqrt(w / n) for w, n in zip(m23.block_weights, m23.block_dims)]
        uvec = lambda blocks: np.concatenate([s * b.reshape(b.shape[:-2] + (-1,))
                                              for s, b in zip(scales, blocks)], axis=-1)
        coef, *_ = np.linalg.lstsq(uvec(basis).T, uvec(x.blocks), rcond=None)
        want = m23.element([np.tensordot(coef, b, axes=1) for b in basis])
        assert nc.lp_norm(level.expect(x) - want, 2) < 1e-10


class TestExpectationProperties:
    @pytest.fixture
    def levels(self, m23):
        return [
            Level.scalars(m23),
            Level.block_scalar(m23, [[[0, 1]], [[0, 1], [2]]]),
            Level.block_full(m23, [[[0], [1]], [[0, 1], [2]]]),
            Level.general(m23, Level.block_full(
                m23, [[[0, 1]], [[0, 1], [2]]]).spanning_basis()),
        ]

    def test_trace_preserving(self, m23, levels):
        for seed, level in enumerate(levels):
            x = nc.random_element(m23, seed)
            assert abs(nc.trace(level.expect(x)) - nc.trace(x)) < 1e-10

    def test_idempotent(self, m23, levels):
        for seed, level in enumerate(levels):
            x = nc.random_element(m23, seed + 10)
            ex = level.expect(x)
            assert nc.lp_norm(level.expect(ex) - ex, 2) < 1e-10

    def test_duality(self, m23, levels):
        for seed, level in enumerate(levels):
            x = nc.random_element(m23, seed + 20)
            y = nc.random_element(m23, seed + 30)
            lhs = nc.trace(level.expect(x) @ y)
            rhs = nc.trace(x @ level.expect(y))
            assert abs(lhs - rhs) < 1e-10

    def test_module_property(self, m23, levels):
        for seed, level in enumerate(levels):
            x = nc.random_element(m23, seed + 40)
            a = level.expect(nc.random_element(m23, seed + 50))
            b = level.expect(nc.random_element(m23, seed + 60))
            lhs = level.expect(a @ x @ b)
            rhs = a @ level.expect(x) @ b
            assert nc.lp_norm(lhs - rhs, 2) < 1e-9

    def test_schwarz_positivity(self, m23, levels):
        for seed, level in enumerate(levels):
            x = nc.random_element(m23, seed + 70)
            gap = level.expect(nc.abs2(x)) - nc.abs2(level.expect(x))
            assert nc.min_eigenvalue(gap, 1e-9) >= -1e-9

    @pytest.mark.parametrize("p", [1, 2, 4, math.inf])
    def test_contraction(self, m23, levels, p):
        for seed, level in enumerate(levels):
            x = nc.random_element(m23, seed + 80)
            assert nc.lp_norm(level.expect(x), p) <= nc.lp_norm(x, p) + 1e-9

    def test_adjoint_preserving(self, m23, levels):
        for seed, level in enumerate(levels):
            x = nc.random_element(m23, seed + 90)
            assert nc.lp_norm(level.expect(x.adjoint()) - level.expect(x).adjoint(), 2) < 1e-10


def chained(levels, x, s, t):
    """E_s(E_t(x)), asserting the tower identity E_s E_t = E_s for s <= t."""
    out = levels[s].expect(levels[t].expect(x))
    assert nc.lp_norm(out - levels[s].expect(x), 2) < 1e-12
    return out


class TestExpectChain:
    def test_same_index_is_idempotence(self, m2_chain, m2):
        x = single(m2, [[1, 2], [3, 4]])
        out = chained(m2_chain.levels, x, 1, 1)
        assert nc.lp_norm(out - m2_chain.levels[1].expect(x), 2) < 1e-12

    def test_fixed_point_of_low_level(self, m2_chain, m2):
        x = 3.5 * m2.identity()
        out = chained(m2_chain.levels, x, 0, 2)
        assert nc.lp_norm(out - x, 2) < 1e-12

    def test_worked_chain_value(self, m2_chain, m2):
        x = single(m2, [[1, 1], [1, -1]])
        out = chained(m2_chain.levels, x, 0, 1)
        assert nc.lp_norm(out, 2) < 1e-12  # tau(diag(1,-1)) = 0


class TestValidation:
    def test_singular_basis_rejected(self, m2):
        basis = nc.stack([m2.identity(), m2.identity()])
        with pytest.raises(nc.IllConditionedBasisError) as err:
            Level.general(m2, basis)
        assert err.value.condition > 1e12

    def test_basis_without_identity_rejected(self, m2):
        with pytest.raises(nc.StructureError):
            Level.general(m2, nc.stack([single(m2, [[1, 0], [0, 0]])]))

    def test_empty_basis_rejected(self, m2):
        with pytest.raises(nc.StructureError, match="at least one"):
            nc.stack([])
        with pytest.raises(nc.StructureError, match="nonempty"):
            Level.general(m2, m2.element([np.zeros((0, 2, 2))]))

    def test_basis_from_another_algebra_rejected(self, m2):
        other = nc.TracialAlgebra([2, 1], [0.5, 0.5])
        with pytest.raises(nc.StructureError, match="different algebra"):
            Level.general(m2, nc.stack([other.identity()]))

    def test_basis_that_is_not_a_stack_rejected(self, m2):
        for basis in (None, [], [m2.identity()]):
            with pytest.raises(nc.StructureError, match="one stack"):
                Level.general(m2, basis)

    def test_non_star_closed_basis_rejected(self, m2):
        with pytest.raises(nc.StructureError):
            Level.general(m2, nc.stack([m2.identity(), single(m2, [[0, 1], [0, 0]])]))

    @pytest.mark.parametrize("call, message", [(1, "identity"), (2, "closed")])
    def test_nan_inclusion_defect_rejected(self, m2, monkeypatch, call, message):
        # NaN basis data stops at the condition estimate, so stand in a NaN defect
        nan_on_call(monkeypatch, conditional, "lp_norm", call)
        with pytest.raises(nc.StructureError, match=message):
            Level.general(m2, nc.stack([m2.identity(), single(m2, [[1, 0], [0, 0]])]))

    def test_bad_partition_rejected(self, m2):
        with pytest.raises(nc.StructureError):
            Level.block_full(m2, [[[0], [0, 1]]])  # overlap
        with pytest.raises(nc.StructureError):
            Level.block_full(m2, [[[0]]])  # not covering

    @pytest.mark.parametrize("groups", [5, [[5]], [[["a"]]], [[[0.0], [1]]], "ab"])
    def test_groups_that_are_not_integer_lists_rejected(self, m2, groups):
        with pytest.raises(nc.StructureError):
            Level.block_full(m2, groups)
        with pytest.raises(nc.StructureError):
            Level.block_scalar(m2, groups)

    def test_boolean_coordinates_rejected(self, m2):
        # operator.index(True) is 1, so a JSON true would pass for coordinate 1
        with pytest.raises(nc.StructureError):
            Level.block_full(nc.TracialAlgebra([2]), [[[True], [0]]])
        with pytest.raises(nc.StructureError):
            Level.block_scalar(m2, [[[0], [False, 1]]])

    def test_level_dim(self, m23):
        assert Level.scalars(m23).dim == 1
        assert Level.block_scalar(m23, [[[0, 1]], [[0, 1, 2]]]).dim == 2
        assert Level.block_full(m23, [[[0, 1]], [[0, 1, 2]]]).dim == 13
        assert Level.block_full(m23, [[[0], [1]], [[0, 1], [2]]]).dim == 7
