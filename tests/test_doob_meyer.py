"""Quadratic variation, compensator, decompositions, naturality, uniqueness."""

import math

import numpy as np
import pytest

import ncmart as nc
from conftest import nan_element, single


@pytest.fixture
def worked(m2_chain, m2_terminal):
    return nc.martingale_from_terminal(m2_chain, m2_terminal)


@pytest.fixture
def constant(m2_chain, m2):
    return nc.AdaptedProcess(m2_chain, [m2.identity()] * 3)


def random_martingale(filt, seed):
    return nc.martingale_from_terminal(
        filt, nc.random_element(filt.algebra, seed))


class TestQuadraticVariation:
    def test_worked_value(self, worked, m2):
        qv = nc.quadratic_variation_sum(worked, [0, 1, 2])
        assert nc.lp_norm(qv - 2.0 * m2.identity(), 2) < 1e-14

    def test_constant_process(self, constant):
        assert nc.lp_norm(nc.quadratic_variation_sum(constant, [0, 1, 2]), 2) == 0.0

    def test_endpoint_partition(self, worked):
        qv = nc.quadratic_variation_sum(worked, [0, 2])
        want = nc.abs2(worked.values[2] - worked.values[0])
        assert nc.lp_norm(qv - want, 2) < 1e-14

    def test_positive_and_monotone_in_time(self, pool):
        name, filt = pool[2]
        x = random_martingale(filt, 3)
        grid = nc.full_partition(x)
        prev = filt.algebra.zero()
        for j in range(1, len(grid)):
            cur = nc.quadratic_variation_sum(x, grid[:j + 1])
            assert nc.min_eigenvalue(cur - prev, 1e-10) >= -1e-10
            prev = cur


class TestBracket:
    def test_worked_value_matches_qv(self, worked, m2):
        br = nc.bracket_via_integrals(worked, [0, 1, 2])
        assert nc.lp_norm(br - 2.0 * m2.identity(), 2) < 1e-14

    def test_constant_process(self, constant):
        assert nc.lp_norm(nc.bracket_via_integrals(constant, [0, 1, 2]), 2) < 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_identity_on_random_partitions(self, pool, seed):
        name, filt = pool[2]
        x = random_martingale(filt, seed + 40)
        rng = np.random.Generator(np.random.Philox(seed))
        m = len(x.values) - 1
        inner = sorted(rng.permutation(np.arange(1, m))[:rng.integers(0, m - 1)].tolist())
        part = [0] + inner + [m]
        lhs = nc.bracket_via_integrals(x, part)
        rhs = nc.quadratic_variation_sum(x, part)
        assert nc.lp_norm(lhs - rhs, 2) < 1e-10


class TestCompensator:
    def test_worked_values(self, worked, m2):
        a = nc.compensator(worked)
        want = [m2.zero(), m2.identity(), 2.0 * m2.identity()]
        for v, w in zip(a.values, want):
            assert nc.lp_norm(v - w, 2) < 1e-14

    def test_constant_process(self, m2_chain, m2):
        x = nc.martingale_from_terminal(m2_chain, 1.5 * m2.identity())
        a = nc.compensator(x)
        assert all(nc.lp_norm(v, 2) < 1e-14 for v in a.values)

    def test_compensated_square_is_martingale(self, pool):
        for name, filt in (pool[1], pool[3], pool[6]):
            x = random_martingale(filt, 9)
            a = nc.compensator(x)
            sq = nc.AdaptedProcess(
                filt, [nc.abs2(v) - av for v, av in zip(x.values, a.values)], validate=False)
            assert sq.martingale_residual() <= 1e-9, name

    def test_predictable_and_increasing(self, pool):
        name, filt = pool[5]
        x = random_martingale(filt, 10)
        a = nc.compensator(x)
        assert nc.lp_norm(a.values[0], 2) == 0.0
        for j in range(1, len(a.values)):
            assert nc.lp_norm(filt.levels[j - 1].expect(a.values[j]) - a.values[j], 2) < 1e-10
            assert nc.min_eigenvalue(a.values[j] - a.values[j - 1], 1e-9) >= -1e-9

    def test_rejects_non_martingale(self, m2_chain, m2):
        bad = nc.AdaptedProcess(m2_chain, [m2.zero(), single(m2, [[1, 0], [0, -1]]),
                                           m2.identity()])
        with pytest.raises(nc.DomainError):
            nc.compensator(bad)


class TestDecomposition:
    def test_worked_predictable(self, worked, m2):
        d = nc.doob_meyer_decompose(worked, "predictable")
        assert all(nc.lp_norm(v, 2) < 1e-14 for v in d.martingale_part.values)
        want = [m2.zero(), m2.identity(), 2.0 * m2.identity()]
        for v, w in zip(d.increasing_part.values, want):
            assert nc.lp_norm(v - w, 2) < 1e-14

    def test_worked_bracket_coincides(self, worked):
        dp = nc.doob_meyer_decompose(worked, "predictable")
        db = nc.doob_meyer_decompose(worked, "bracket")
        for v, w in zip(dp.increasing_part.values, db.increasing_part.values):
            assert nc.lp_norm(v - w, 2) < 1e-14

    def test_constant_process(self, m2_chain, m2):
        x = nc.martingale_from_terminal(m2_chain, 1.5 * m2.identity())
        for variant in ("predictable", "bracket"):
            d = nc.doob_meyer_decompose(x, variant)
            for v in d.martingale_part.values:
                assert nc.lp_norm(v - nc.abs2(x.values[0]), 2) < 1e-14
            assert all(nc.lp_norm(v, 2) < 1e-14 for v in d.increasing_part.values)

    @pytest.mark.parametrize("variant", ["predictable", "bracket"])
    def test_residuals_on_random_instances(self, pool, variant):
        for name, filt in (pool[3], pool[4], pool[6]):
            d = nc.doob_meyer_decompose(random_martingale(filt, 11), variant)
            assert d.residuals["reconstruction"] <= 1e-10, name
            assert d.residuals["martingale_part"] <= 1e-9, name
            assert d.residuals["initial"] <= 1e-10, name
            assert d.residuals["increment_psd_defect"] <= 1e-9, name
            if variant == "predictable":
                assert d.residuals["predictability"] <= 1e-10, name

    def test_unknown_variant(self, worked):
        with pytest.raises(nc.DomainError):
            nc.doob_meyer_decompose(worked, "midpoint")


class TestNaturalityPairing:
    def test_worked_value(self, worked, m2):
        a = nc.compensator(worked)
        y = single(m2, [[2, 0], [0, 0]])
        lhs, rhs = nc.naturality_pairing(a, y, [0, 1, 2])
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(2.0)

    def test_identity_probe(self, pool):
        name, filt = pool[2]
        a = nc.compensator(random_martingale(filt, 13))
        lhs, rhs = nc.naturality_pairing(a, filt.algebra.identity(), nc.full_partition(a))
        want = nc.trace(a.values[-1])
        assert lhs == pytest.approx(want) and rhs == pytest.approx(want)

    def test_zero_process(self, m2_chain, m2):
        zero = nc.AdaptedProcess(m2_chain, [m2.zero()] * 3)
        lhs, rhs = nc.naturality_pairing(zero, m2.identity(), [0, 1, 2])
        assert lhs == 0.0 and rhs == 0.0

    def test_equality_for_predictable_full_grid(self, pool):
        for name, filt in (pool[1], pool[5]):
            a = nc.compensator(random_martingale(filt, 14))
            y = nc.random_element(filt.algebra, 15)
            lhs, rhs = nc.naturality_pairing(a, y, nc.full_partition(a))
            assert abs(lhs - rhs) < 1e-10, name

    def test_requires_zero_start(self, worked):
        sq = nc.AdaptedProcess(worked.filtration,
                               [nc.abs2(v) + worked.filtration.algebra.identity()
                                for v in worked.values], validate=False)
        with pytest.raises(nc.DomainError):
            nc.naturality_pairing(sq, worked.filtration.algebra.identity(), [0, 1, 2])

    def test_rejects_nan_start(self, m2_chain, m2):
        a = nc.AdaptedProcess(m2_chain, [nan_element(m2), m2.zero(), m2.zero()],
                              validate=False)
        with pytest.raises(nc.DomainError, match="A\\(0\\) = 0"):
            nc.naturality_pairing(a, m2.identity(), [0, 1, 2])


class TestNaturalityGap:
    def test_worked_gap_vanishes(self, worked):
        g, residuals = nc.naturality_gap(worked, [0, 1, 2])
        assert g < 1e-14

    def test_constant_process(self, constant):
        g, residuals = nc.naturality_gap(constant, [0, 1, 2])
        assert g == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_orthogonality_identity(self, pool, seed):
        name, filt = pool[2]
        x = random_martingale(filt, seed + 50)
        grid = nc.full_partition(x)
        g, residuals = nc.naturality_gap(x, grid)
        terms = []
        for k, dx in enumerate(nc.increments(x, grid), 1):
            sq = nc.abs2(dx)
            terms.append(sq - filt.levels[k - 1].expect(sq))
        assert abs(g ** 2 - sum(nc.lp_norm(t, 2) ** 2 for t in terms)) < 1e-9
        assert set(residuals) == {"orthogonality", "fourth_moment"}
        assert all(r <= 1e-9 for r in residuals.values())

    def test_fourth_moment_bound(self, pool):
        name, filt = pool[6]
        x = random_martingale(filt, 51)
        grid = nc.full_partition(x)
        g, residuals = nc.naturality_gap(x, grid)
        fourth = sum(nc.trace(nc.abs2(dx) @ nc.abs2(dx)).real
                     for dx in nc.increments(x, grid))
        assert g ** 2 <= 4.0 * fourth + 1e-9

    def test_pairing_gap_bound(self, pool):
        name, filt = pool[3]
        x = random_martingale(filt, 52)
        grid = nc.full_partition(x)
        a = nc.compensator(x)
        qv = nc.quadratic_variation_sum(x, grid)
        y = nc.random_element(filt.algebra, 53)
        lhs = abs(nc.trace(y @ (a.values[-1] - qv)))
        g, residuals = nc.naturality_gap(x, grid)
        assert lhs <= nc.lp_norm(y, 2) * g + 1e-10

    def test_overflow_makes_the_fourth_moment_nan(self, pool):
        # g^2 and 4 tau(sum_k |dX_k|^4) both overflow, and inf - inf is NaN
        name, filt = pool[2]
        x = 1e100 * random_martingale(filt, 51)
        with np.errstate(over="ignore", invalid="ignore"):
            g, residuals = nc.naturality_gap(x, nc.full_partition(x))
        assert math.isnan(residuals["fourth_moment"])


class TestUniqueness:
    def test_zero_process(self, m2_chain, m2):
        zero = nc.AdaptedProcess(m2_chain, [m2.zero()] * 3)
        assert nc.uniqueness_residual(zero) == 0.0

    def test_difference_of_worked_variants(self, worked):
        dp = nc.doob_meyer_decompose(worked, "predictable")
        db = nc.doob_meyer_decompose(worked, "bracket")
        diff = dp.martingale_part - db.martingale_part
        assert nc.uniqueness_residual(diff) < 1e-14

    @pytest.mark.parametrize("seed", range(3))
    def test_selfadjoint_martingales(self, pool, seed):
        name, filt = pool[(seed + 3) % len(pool)]
        h = nc.random_element(filt.algebra, seed + 60, "hermitian")
        m = nc.martingale_from_terminal(filt, h)
        assert nc.uniqueness_residual(m) <= 1e-10

    def test_rejects_non_selfadjoint(self, pool):
        name, filt = pool[2]
        x = nc.martingale_from_terminal(
            filt, nc.random_element(filt.algebra, 61, "general"))
        with pytest.raises(nc.DomainError):
            nc.uniqueness_residual(x)

    def test_rejects_nan_defect(self, m2_chain, m2):
        m = nc.AdaptedProcess(m2_chain, [nan_element(m2)] * 3, validate=False)
        with pytest.raises(nc.DomainError, match="not selfadjoint"):
            nc.uniqueness_residual(m)


class TestCrossVariation:
    def test_equals_qv_for_same_process(self, worked):
        cv = nc.cross_variation(worked, worked, [0, 1, 2])
        qv = nc.quadratic_variation_sum(worked, [0, 1, 2])
        assert nc.lp_norm(cv - qv, 2) < 1e-12

    def test_worked_polarization_value(self, worked, m2):
        cv = nc.cross_variation(worked, worked, [0, 1, 2])
        assert nc.lp_norm(cv - 2.0 * m2.identity(), 2) < 1e-12

    def test_constant_first_argument(self, constant, worked):
        cv = nc.cross_variation(constant, worked, [0, 1, 2])
        assert nc.lp_norm(cv, 2) < 1e-14

    def test_sesquilinear(self, pool):
        name, filt = pool[3]
        x = random_martingale(filt, 70)
        y = random_martingale(filt, 71)
        z = random_martingale(filt, 72)
        grid = nc.full_partition(x)
        cv = lambda a, b: nc.cross_variation(a, b, grid)
        assert nc.lp_norm(cv(x, y + z) - (cv(x, y) + cv(x, z)), 2) < 1e-10
        assert nc.lp_norm(cv(x + y, z) - (cv(x, z) + cv(y, z)), 2) < 1e-10
        assert nc.lp_norm(cv(1j * x, y) - (-1j) * cv(x, y), 2) < 1e-10
        assert nc.lp_norm(cv(x, 1j * y) - 1j * cv(x, y), 2) < 1e-10

    def test_mismatched_filtrations(self, worked, pool):
        name, filt = pool[0]
        other = random_martingale(filt, 73)
        with pytest.raises(nc.StructureError):
            nc.cross_variation(worked, other, [0, 1, 2])


def same_blocks(a, b):
    return all(np.all(p == q) for p, q in zip(a.blocks, b.blocks, strict=True))


@pytest.mark.parametrize("instances", [None, 3], ids=["one", "stack"])
@pytest.mark.parametrize("combo", [1, 3, 5])
def test_one_fold_makes_the_routes_exact(pool, combo, instances):
    # every sum is partial_sums over the same terms in the same order, so a
    # process ends bit for bit on its sum; squares() holds abs2 of each value
    name, filt = pool[combo]
    draw = lambda seed: (nc.random_element(filt.algebra, seed) if instances is None else
                         nc.stack([nc.random_element(filt.algebra, seed + 100 * k)
                                   for k in range(instances)]))
    x = nc.martingale_from_terminal(filt, draw(80))
    f = nc.martingale_from_terminal(filt, draw(81))
    full = nc.full_partition(x)
    for side, sum_fn in (("left", nc.left_sum), ("right", nc.right_sum)):
        assert same_blocks(nc.integral_process(x, f, side).values[-1], sum_fn(x, f, full))
    assert same_blocks(nc.doob_meyer_decompose(x, "bracket").increasing_part.values[-1],
                       nc.quadratic_variation_sum(x, full))
    for p in (full, (0, full[-1]), tuple(sorted({*full[::2], full[-1]}))):
        assert same_blocks(nc.cross_variation(x, x, p), nc.quadratic_variation_sum(x, p))
    assert all(same_blocks(sq, nc.abs2(v)) for sq, v in zip(x.squares(), x.values, strict=True))
