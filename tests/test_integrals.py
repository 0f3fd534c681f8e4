"""Integral sums, integral processes and refinement diagnostics."""

import numpy as np
import pytest

import ncmart as nc
from conftest import single


@pytest.fixture
def worked(m2_chain, m2_terminal):
    return nc.martingale_from_terminal(m2_chain, m2_terminal)


class TestSums:
    def test_left_telescopes_for_identity_integrand(self, worked, m2_chain, m2):
        one = nc.AdaptedProcess(m2_chain, [m2.identity()] * 3)
        for part in ([0, 1, 2], [0, 2]):
            s = nc.left_sum(worked, one, part)
            assert nc.lp_norm(s - (worked.values[2] - worked.values[0]), 2) < 1e-14

    def test_left_worked_value(self, worked, m2):
        s = nc.left_sum(worked, worked, [0, 1, 2])
        assert nc.lp_norm(s - single(m2, [[0, -1], [1, 0]]), 2) < 1e-14

    def test_right_worked_value(self, worked, m2):
        s = nc.right_sum(worked, worked, [0, 1, 2])
        assert nc.lp_norm(s - single(m2, [[0, 1], [-1, 0]]), 2) < 1e-14

    def test_right_telescopes_for_identity_integrand(self, worked, m2_chain, m2):
        one = nc.AdaptedProcess(m2_chain, [m2.identity()] * 3)
        s = nc.right_sum(worked, one, [0, 1, 2])
        assert nc.lp_norm(s - (worked.values[2] - worked.values[0]), 2) < 1e-14

    def test_constant_integrator_vanishes(self, m2_chain, m2, worked):
        const = nc.AdaptedProcess(m2_chain, [m2.identity()] * 3)
        for fn in (nc.left_sum, nc.right_sum):
            assert nc.lp_norm(fn(const, worked, [0, 1, 2]), 2) == 0.0

    def test_mismatched_filtrations(self, worked, m2):
        other = nc.Filtration(nc.TimeGrid([0.0, 1.0]), [
            nc.SubalgebraLevel.scalars(m2), nc.SubalgebraLevel.block_full(m2, [[[0, 1]]])])
        f = nc.AdaptedProcess(other, [m2.identity()] * 2)
        with pytest.raises(nc.StructureError):
            nc.left_sum(worked, f, [0, 1])


class TestLinearityAndAdjoint:
    @pytest.fixture
    def trio(self, pool):
        name, filt = pool[2]  # m4-7lv
        alg = filt.algebra
        x = nc.martingale_from_terminal(filt, nc.random_element(alg, 1))
        y = nc.martingale_from_terminal(filt, nc.random_element(alg, 2))
        f = nc.martingale_from_terminal(filt, nc.random_element(alg, 3))
        return x, y, f

    def test_additive_in_integrand(self, trio):
        x, y, f = trio
        part = nc.full_partition(x)
        lhs = nc.left_sum(x, y + f, part)
        rhs = nc.left_sum(x, y, part) + nc.left_sum(x, f, part)
        assert nc.lp_norm(lhs - rhs, 2) < 1e-10

    def test_additive_in_integrator(self, trio):
        x, y, f = trio
        part = nc.full_partition(x)
        lhs = nc.left_sum(x + y, f, part)
        rhs = nc.left_sum(x, f, part) + nc.left_sum(y, f, part)
        assert nc.lp_norm(lhs - rhs, 2) < 1e-10

    def test_adjoint_relation(self, trio):
        x, y, _ = trio
        part = nc.full_partition(x)
        lhs = nc.left_sum(x, y, part).adjoint()
        rhs = nc.right_sum(x.adjoint(), y.adjoint(), part)
        assert nc.lp_norm(lhs - rhs, 2) < 1e-12


class TestIntegralProcess:
    def test_identity_integrand_reproduces_shifted_process(self, worked, m2_chain, m2):
        one = nc.AdaptedProcess(m2_chain, [m2.identity()] * 3)
        proc = nc.integral_process(worked, one, "left")
        for v, w in zip(proc.values, worked.values):
            assert nc.lp_norm(v - (w - worked.values[0]), 2) < 1e-14

    def test_worked_partial_sums(self, worked, m2):
        proc = nc.integral_process(worked, worked, "left")
        want = [m2.zero(), m2.zero(), single(m2, [[0, -1], [1, 0]])]
        for v, w in zip(proc.values, want):
            assert nc.lp_norm(v - w, 2) < 1e-14

    def test_constant_integrator_gives_zero_process(self, m2_chain, m2, worked):
        const = nc.AdaptedProcess(m2_chain, [m2.identity()] * 3)
        proc = nc.integral_process(const, worked, "right")
        assert all(nc.lp_norm(v, 2) == 0.0 for v in proc.values)

    def test_non_martingale_integrator_rejected(self, m2_chain, m2, worked):
        values = [m2.zero(), single(m2, [[1, 0], [0, -1]]), m2.identity()]
        bad = nc.AdaptedProcess(m2_chain, values)
        with pytest.raises(nc.DomainError, match="martingale"):
            nc.integral_process(bad, worked, "left")

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_integral_is_martingale(self, pool, side):
        for name, filt in (pool[2], pool[3], pool[6]):
            alg = filt.algebra
            x = nc.martingale_from_terminal(alg and filt, nc.random_element(alg, 4))
            f = nc.martingale_from_terminal(filt, nc.random_element(alg, 5))
            proc = nc.integral_process(x, f, side)
            assert proc.martingale_residual() <= 1e-9, name


class TestRefinementTable:
    def test_full_grid_chain_is_zero(self, worked):
        table = nc.refinement_table(worked, worked, "left", [[0, 1, 2]])
        assert table == [0.0]

    def test_constant_between_refinements(self, m2_chain, m2, worked):
        const = nc.AdaptedProcess(m2_chain, [m2.identity()] * 3)
        table = nc.refinement_table(const, const, "left", [[0, 2], [0, 1, 2]])
        assert all(v == 0.0 for v in table)

    def test_decay_ends_at_zero(self, pool):
        name, filt = pool[6]  # m8-8lv
        x = nc.martingale_from_terminal(filt, nc.random_element(filt.algebra, 12))
        chain = [[0, 7], [0, 3, 7], [0, 1, 3, 5, 7], list(range(8))]
        table = nc.refinement_table(x, x, "left", chain)
        assert len(table) == 4
        assert table[-1] <= 1e-12
        assert any(v > 1e-6 for v in table[:-1])  # genuine decay measured

    def test_non_nested_chain_rejected(self, worked):
        with pytest.raises(nc.DomainError, match="nested"):
            nc.refinement_table(worked, worked, "left", [[0, 1], [0, 2]])


class TestRefinementInvariance:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_exact_once_past_change_points(self, pool, side):
        name, filt = pool[4]  # m2m3-4lv
        alg = filt.algebra
        x = nc.martingale_from_terminal(filt, nc.random_element(alg, 21))
        f = nc.martingale_from_terminal(filt, nc.random_element(alg, 22))
        fine, src = nc.refined_filtration(filt, nc.refine_times(filt.grid.times, 3))
        xf, ff = nc.lift_process(x, fine, src), nc.lift_process(f, fine, src)
        orig = [k for k in range(len(src)) if k == 0 or src[k] != src[k - 1]]
        sum_fn = nc.left_sum if side == "left" else nc.right_sum
        coarse = sum_fn(xf, ff, orig)
        finest = sum_fn(xf, ff, nc.full_partition(xf))
        assert nc.lp_norm(finest - coarse, 2) <= 1e-12

    def test_cross_term_orthogonality(self, pool):
        name, filt = pool[2]
        alg = filt.algebra
        x = nc.martingale_from_terminal(filt, nc.random_element(alg, 31))
        f = nc.martingale_from_terminal(filt, nc.random_element(alg, 32))
        grid = nc.full_partition(x)
        half = (0, 2, 4, 6)
        diff = nc.left_sum(x, f, grid) - nc.left_sum(x, f, half)
        terms = []
        for a, b in zip(half, half[1:]):
            for k in range(a, b):
                dx = x.values[k + 1] - x.values[k]
                terms.append(dx @ (f.values[k] - f.values[a]))
        lhs = nc.lp_norm(diff, 2) ** 2
        rhs = sum(nc.lp_norm(t, 2) ** 2 for t in terms)
        assert abs(lhs - rhs) < 1e-10

    def test_integrand_bound_reported(self, worked):
        assert nc.integrand_bound(worked) == pytest.approx(np.sqrt(2))
