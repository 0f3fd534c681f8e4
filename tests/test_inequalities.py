"""Ratio estimates, Chebyshev and Kolmogorov certificates, Segal moduli."""

import math

import numpy as np
import pytest

import ncmart as nc
from conftest import centered_terminal, count_linalg, single


def random_martingale(filt, seed):
    return nc.martingale_from_terminal(filt, nc.random_element(filt.algebra, seed))


class TestBgRatio:
    def test_worked_p2_ratio_is_one(self, m2_martingale):
        assert nc.bg_ratio(m2_martingale, [0, 1, 2], 2.0) == pytest.approx(1.0)

    def test_constant_process(self, m2_chain, m2):
        x = nc.martingale_from_terminal(m2_chain, 1.5 * m2.identity())
        assert nc.bg_ratio(x, [0, 1, 2], 4.0) == pytest.approx(0.0)
        zero = nc.AdaptedProcess(m2_chain, [m2.zero()] * 3)
        with pytest.raises(nc.UndefinedRatioError):
            nc.bg_ratio(zero, [0, 1, 2], 4.0)

    def test_random_p4_finite(self, pool):
        name, filt = pool[2]
        val = nc.bg_ratio(random_martingale(filt, 5), nc.full_partition(filt), 4.0)
        assert np.isfinite(val) and val > 0

    def test_p2_exactness(self, pool):
        for name, filt in (pool[1], pool[3], pool[6]):
            x = nc.martingale_from_terminal(filt, centered_terminal(filt.algebra, 6))
            grid = nc.full_partition(x)
            square = filt.algebra.zero()
            for dx in nc.increments(x, grid):
                square = square + nc.abs2(dx)
            num_sq = nc.lp_norm(nc.psd_sqrt(square), 2) ** 2
            want = nc.lp_norm(x.values[-1], 2) ** 2 - nc.lp_norm(x.values[0], 2) ** 2
            assert abs(num_sq - want) < 1e-10, name
            assert nc.bg_ratio(x, grid, 2.0) <= 1.0 + 1e-9, name

    def test_rejects_small_p(self, m2_martingale):
        for p in (1.5, math.nan):
            with pytest.raises(nc.DomainError):
                nc.bg_ratio(m2_martingale, [0, 1, 2], p)
            with pytest.raises(nc.DomainError):
                nc.square_function_ratios(m2_martingale, [0, 1, 2], p)

    def test_scale_invariant(self, pool):
        name, filt = pool[3]
        x = random_martingale(filt, 7)
        grid = nc.full_partition(x)
        for p in (2.0, 3.0, 8.0):
            assert abs(nc.bg_ratio(3.0 * x, grid, p) - nc.bg_ratio(x, grid, p)) < 1e-10


class TestDualDoobRatio:
    def test_worked_ratio_is_one(self, m2_martingale):
        for p in (2.0, 4.0, 8.0):
            assert nc.dual_doob_ratio(m2_martingale, [0, 1, 2], p) == pytest.approx(1.0)

    def test_constant_process_undefined(self, m2_chain, m2):
        x = nc.martingale_from_terminal(m2_chain, 1.5 * m2.identity())
        with pytest.raises(nc.UndefinedRatioError):
            nc.dual_doob_ratio(x, [0, 1, 2], 4.0)

    def test_p2_trace_equality(self, pool):
        name, filt = pool[2]
        x = random_martingale(filt, 8)
        grid = nc.full_partition(x)
        plain = filt.algebra.zero()
        conditioned = filt.algebra.zero()
        for k, dx in enumerate(nc.increments(x, grid), 1):
            sq = nc.abs2(dx)
            plain = plain + sq
            conditioned = conditioned + filt.levels[k - 1].expect(sq)
        assert abs(nc.trace(plain) - nc.trace(conditioned)) < 1e-10
        want = nc.trace(nc.abs2(x.values[-1])) - nc.trace(nc.abs2(x.values[0]))
        assert nc.trace(plain).real == pytest.approx(want.real, abs=1e-10)

    def test_scale_invariant(self, pool):
        name, filt = pool[4]
        x = random_martingale(filt, 9)
        grid = nc.full_partition(x)
        for p in (3.0, 8.0):
            assert abs(nc.dual_doob_ratio(3.0 * x, grid, p)
                       - nc.dual_doob_ratio(x, grid, p)) < 1e-10


class TestChebyshev:
    def test_worked_value(self, m2):
        cert = nc.chebyshev_projection(single(m2, [[4, 0], [0, 0]]), 1.0)
        assert nc.lp_norm(cert.projection.element - single(m2, [[1, 0], [0, 0]]), 2) < 1e-12
        assert cert.trace_value == pytest.approx(0.5)
        assert cert.trace_bound == pytest.approx(2.0)

    def test_zero_element(self, m2):
        cert = nc.chebyshev_projection(m2.zero(), 1.0)
        assert nc.lp_norm(cert.projection.element, 2) == 0.0
        assert cert.trace_value == 0.0 and cert.tail_norm == 0.0

    def test_boundary_equality_case(self, m2):
        cert = nc.chebyshev_projection(0.7 * m2.identity(), 0.7)
        assert nc.lp_norm(cert.projection.element - m2.identity(), 2) < 1e-12
        assert cert.trace_value == pytest.approx(cert.trace_bound)

    def test_rejects_non_positive(self, m2):
        with pytest.raises(nc.DomainError):
            nc.chebyshev_projection(single(m2, [[1, 0], [0, -1]]), 1.0)
        with pytest.raises(nc.DomainError):
            nc.chebyshev_projection(m2.identity(), 0.0)

    def test_rejects_nan_eta(self, m2):
        with pytest.raises(nc.DomainError, match="eta must be positive"):
            nc.chebyshev_projection(m2.identity(), math.nan)

    def test_rejects_infinite_eta(self, m2):
        with pytest.raises(nc.DomainError, match="eta must be positive and finite, got inf"):
            nc.chebyshev_projection(m2.identity(), math.inf)

    def test_rejects_an_array_eta(self):
        alg = nc.TracialAlgebra([2, 3], [0.4, 0.6])
        xs = nc.stack([nc.random_element(alg, 70 + k, "positive") for k in range(3)])
        for eta in (np.array([0.5, 1.0, 2.0]), np.array(1.0), [1.0]):
            with pytest.raises(nc.DomainError, match="eta must be one real number"):
                nc.chebyshev_projection(xs, eta)

    @pytest.mark.parametrize("dims", [[2], [3], [2, 3], [5]])
    def test_random_sweep(self, dims):
        alg = nc.TracialAlgebra(dims)
        for seed in range(10):
            x = nc.random_element(alg, seed, "positive")
            top = nc.lp_norm(x, math.inf)
            for eta in np.linspace(top / 10, 1.1 * top, 12):
                cert = nc.chebyshev_projection(x, float(eta))
                assert cert.trace_value <= cert.trace_bound + 1e-10
                assert cert.tail_norm <= eta + 1e-10


class TestKolmogorov:
    def test_worked_certificate(self, m2_martingale):
        cert = nc.kolmogorov_projection(m2_martingale, 2.0, "left")
        assert nc.lp_norm(cert.projection.element
                          - m2_martingale.filtration.algebra.identity(), 2) < 1e-12
        assert cert.trace_defect == pytest.approx(0.0, abs=1e-12)
        assert cert.trace_bound == pytest.approx(0.5)
        assert cert.sup_norms == pytest.approx((1.0, math.sqrt(2)))

    def test_zero_martingale(self, m2_chain, m2):
        zero = nc.AdaptedProcess(m2_chain, [m2.zero()] * 3)
        cert = nc.kolmogorov_projection(zero, 1.0, "left")
        assert nc.lp_norm(cert.projection.element - m2.identity(), 2) < 1e-12
        assert all(s == 0.0 for s in cert.sup_norms)

    def test_huge_epsilon_gives_identity(self, pool):
        name, filt = pool[2]
        x = random_martingale(filt, 10)
        big = 10.0 * max(nc.lp_norm(v, math.inf) for v in x.values)
        cert = nc.kolmogorov_projection(x, big, "right")
        assert nc.lp_norm(cert.projection.element - filt.algebra.identity(), 2) < 1e-10

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_percentile_certificates(self, pool, side):
        for name, filt in (pool[2], pool[5], pool[6]):
            for seed in range(5):
                x = random_martingale(filt, 100 + seed)
                eps = nc.epsilon_from_percentile(x, 30.0)
                cert = nc.kolmogorov_projection(x, eps, side)
                assert cert.trace_defect <= cert.trace_bound + 1e-10, name
                assert max(cert.sup_norms) <= eps + 1e-9, name
                for a, b in zip(cert.meets, cert.meets[1:]):
                    assert nc.min_eigenvalue(a.element - b.element, tol=1e-8) >= -1e-9

    def test_nontrivial_for_small_epsilon(self, pool):
        name, filt = pool[6]
        x = random_martingale(filt, 17)
        eps = nc.epsilon_from_percentile(x, 30.0)
        cert = nc.kolmogorov_projection(x, eps, "left")
        assert cert.trace_defect > 0.0  # certificate is informative

    def test_rejects_non_martingale(self, m2_chain, m2):
        bad = nc.AdaptedProcess(m2_chain, [m2.zero(), single(m2, [[1, 0], [0, -1]]),
                                           m2.identity()])
        with pytest.raises(nc.DomainError):
            nc.kolmogorov_projection(bad, 1.0, "left")

    def test_rejects_nan_epsilon(self, m2_martingale, m2_chain, m2_terminal):
        with pytest.raises(nc.DomainError, match="epsilon must be positive"):
            nc.kolmogorov_projection(m2_martingale, math.nan, "left")
        x = nc.martingale_from_terminal(m2_chain, nc.stack([m2_terminal] * 3))
        with pytest.raises(nc.DomainError, match="epsilon must be positive"):
            nc.kolmogorov_projection(x, np.array([1.0, math.nan, 2.0]), "right")


class TestSegalModulus:
    def test_zero_projection(self, m2_martingale, m2):
        e = nc.Projection(m2.zero())
        table = nc.segal_modulus(m2_martingale, e, "weak")
        assert all(mod == 0.0 for _, mod in table)

    def test_identity_projection_gives_plain_norms(self, m2_martingale, m2):
        e = nc.Projection(m2.identity())
        table = dict(nc.segal_modulus(m2_martingale, e, "left"))
        want = max(nc.lp_norm(m2_martingale.values[j] - m2_martingale.values[i], math.inf)
                   for j in range(3) for i in range(j))
        assert table[2.0] == pytest.approx(want)

    def test_monotone_in_gap(self, pool):
        name, filt = pool[6]
        x = random_martingale(filt, 19)
        e = nc.Projection(nc.random_element(filt.algebra, 20, "projection-like"))
        for side in ("left", "right", "weak"):
            mods = [m for _, m in nc.segal_modulus(x, e, side)]
            assert all(a <= b + 1e-12 for a, b in zip(mods, mods[1:]))

    def test_weak_below_one_sided(self, pool):
        name, filt = pool[3]
        x = random_martingale(filt, 21)
        e = nc.Projection(nc.random_element(filt.algebra, 22, "projection-like"))
        left = [m for _, m in nc.segal_modulus(x, e, "left")]
        right = [m for _, m in nc.segal_modulus(x, e, "right")]
        weak = [m for _, m in nc.segal_modulus(x, e, "weak")]
        for w, l, r in zip(weak, left, right):
            assert w <= min(l, r) + 1e-10

    def test_certified_projection_controls_modulus(self, pool):
        name, filt = pool[2]
        x = nc.martingale_from_terminal(filt, centered_terminal(filt.algebra, 23))
        eps = nc.epsilon_from_percentile(x, 60.0)
        cert = nc.kolmogorov_projection(x, eps, "left")
        table = nc.segal_modulus(x, cert.projection, "left")
        assert table[0][1] <= 2.0 * eps + 1e-9


class TestSquareSumMemo:
    """Each square sum is built once per process and partition."""

    def count_expects(self, monkeypatch):
        calls = []
        real = nc.SubalgebraLevel.expect

        def counted(level, x):
            calls.append(None)
            return real(level, x)
        monkeypatch.setattr(nc.SubalgebraLevel, "expect", counted)
        return calls

    def test_three_p_build_the_square_sums_once(self, pool, monkeypatch):
        name, filt = pool[4]
        x = random_martingale(filt, 30)
        grid = nc.full_partition(x)
        expects = self.count_expects(monkeypatch)
        counts = count_linalg(monkeypatch)
        for p in (3.0, 4.0, 8.0):
            nc.bg_ratio(x, grid, p)
            nc.dual_doob_ratio(x, grid, p)
        nblocks = filt.algebra.nblocks
        assert len(expects) == len(grid) - 1
        assert counts["eigh"] == nblocks
        # the terminal, the plain sum, its root and the conditioned sum; the
        # Frobenius norm of the plain sum's Hermiticity defect decides its gate
        assert counts["svd"] == 4 * nblocks

    def test_ratios_equal_those_of_a_fresh_process(self, pool):
        name, filt = pool[5]
        x = random_martingale(filt, 31)
        grid = nc.full_partition(x)
        for p in (3.0, 4.0, 8.0):
            fresh = nc.AdaptedProcess(filt, x.values)
            assert nc.bg_ratio(x, grid, p) == nc.bg_ratio(fresh, grid, p)
            assert nc.dual_doob_ratio(x, grid, p) == nc.dual_doob_ratio(fresh, grid, p)

    def test_plain_sum_is_the_quadratic_variation_bit_for_bit(self, pool):
        name, filt = pool[3]
        x = random_martingale(filt, 32)
        part = (0, 2, 3)
        plain, conditioned = x.square_sums(part)
        assert x.square_sums(list(part)) == (plain, conditioned)
        want = nc.quadratic_variation_sum(x, part)
        assert all(np.array_equal(a, b) for a, b in zip(plain.blocks, want.blocks))
        assert nc.trace(conditioned) == pytest.approx(nc.trace(plain), abs=1e-12)


class TestChebyshevReuse:
    def test_thresholds_of_one_element_share_one_eigh(self, monkeypatch):
        alg = nc.TracialAlgebra([2, 3])
        x = nc.random_element(alg, 33, "positive")
        counts = count_linalg(monkeypatch)
        top = nc.lp_norm(x, math.inf)
        for eta in (0.3 * top, 0.7 * top):
            nc.chebyshev_projection(x, eta)
        assert counts["eigh"] == alg.nblocks
