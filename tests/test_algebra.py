"""Core algebra: trace, norms, functional calculus, projections."""

import math

import numpy as np
import pytest

import ncmart as nc
from ncmart import algebra, inequalities
from conftest import count_linalg, single


@pytest.fixture
def m23():
    return nc.TracialAlgebra([2, 3], [0.4, 0.6])


def rand(algebra, seed, kind="general"):
    return nc.random_element(algebra, seed, kind)


class TestWeights:
    @pytest.mark.parametrize("dims, weights", [
        ([2, 2], [0.0, 1.0]), ([2, 2], [-0.5, 1.5]), ([2, 2], [0.3, 0.3]),
        ([2], [math.nan]), ([2, 2], [math.nan, 1.0])])
    def test_rejected(self, dims, weights):
        with pytest.raises(nc.StructureError, match="block_weights"):
            nc.TracialAlgebra(dims, weights)


class TestTrace:
    def test_identity_is_unital(self, m2):
        assert nc.trace(m2.identity()) == pytest.approx(1.0)

    def test_diagonal_mean(self, m2):
        assert nc.trace(single(m2, [[1, 2], [3, 4]])) == pytest.approx(2.5)

    def test_traceless_element(self, m2):
        assert nc.trace(single(m2, [[1, 1], [1, -1]])) == pytest.approx(0.0)

    def test_weighted_blocks(self, m23):
        x = m23.element([np.eye(2) * 3.0, np.eye(3) * 5.0])
        assert nc.trace(x) == pytest.approx(0.4 * 3.0 + 0.6 * 5.0)

    def test_linear(self, m23):
        x, y = rand(m23, 1), rand(m23, 2)
        assert nc.trace(2.0 * x + 1j * y) == pytest.approx(2.0 * nc.trace(x) + 1j * nc.trace(y))

    def test_tracial_property(self, m23):
        for seed in range(8):
            x, y = rand(m23, seed), rand(m23, seed + 100)
            bound = 1e-10 * nc.lp_norm(x, 2) * nc.lp_norm(y, 2)
            assert abs(nc.trace(x @ y) - nc.trace(y @ x)) <= bound

    def test_positivity_and_faithfulness(self, m23):
        for seed in range(5):
            x = rand(m23, seed)
            val = nc.trace(nc.abs2(x)).real
            assert val >= 0
            assert val == pytest.approx(nc.lp_norm(x, 2) ** 2)
        assert nc.lp_norm(m23.zero(), 2) <= 1e-10


class TestLpNorm:
    def test_hadamard_two_norm(self, m2):
        x = single(m2, [[1, 1], [1, -1]])
        assert nc.lp_norm(x, 2) == pytest.approx(math.sqrt(2))

    def test_hadamard_operator_norm(self, m2):
        x = single(m2, [[1, 1], [1, -1]])
        assert nc.lp_norm(x, math.inf) == pytest.approx(math.sqrt(2))

    @pytest.mark.parametrize("p", [1, 2, 3, 4, math.inf])
    def test_zero(self, m2, p):
        assert nc.lp_norm(m2.zero(), p) == 0.0

    def test_rejects_p_below_one(self, m2):
        for p in (0.5, math.nan):
            with pytest.raises(nc.DomainError):
                nc.lp_norm(m2.identity(), p)

    def test_monotone_in_p(self, m23):
        x = rand(m23, 3)
        norms = [nc.lp_norm(x, p) for p in (1, 1.5, 2, 4, 8, math.inf)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("p,q", [(1, math.inf), (2, 2), (4, 4 / 3), (3, 1.5), (math.inf, 1)])
    def test_hoelder(self, m23, p, q):
        for seed in range(6):
            x, y = rand(m23, seed), rand(m23, seed + 50)
            assert nc.lp_norm(x @ y, 1) <= nc.lp_norm(x, p) * nc.lp_norm(y, q) + 1e-8

    def test_homogeneous(self, m23):
        x = rand(m23, 9)
        for p in (1, 2, 3, math.inf):
            assert nc.lp_norm(3.0 * x, p) == pytest.approx(3.0 * nc.lp_norm(x, p))


class TestAbs2:
    def test_symmetry_squares_to_identity(self, m2):
        x = single(m2, [[1, 0], [0, -1]])
        assert nc.lp_norm(nc.abs2(x) - m2.identity(), 2) < 1e-14

    def test_nilpotent(self, m2):
        x = single(m2, [[0, 1], [0, 0]])
        assert nc.lp_norm(nc.abs2(x) - single(m2, [[0, 0], [0, 1]]), 2) < 1e-14

    def test_zero(self, m2):
        assert nc.lp_norm(nc.abs2(m2.zero()), 2) == 0.0

    def test_positive(self, m23):
        assert nc.min_eigenvalue(nc.abs2(rand(m23, 4)), 1e-10) >= -1e-10


class TestSpectralProjection:
    def test_eigenvalue_selection(self, m2):
        h = single(m2, [[0.5, 0], [0, 3.0]])
        e = nc.spectral_projection(h, (1.0, math.inf))
        assert nc.lp_norm(e.element - single(m2, [[0, 0], [0, 1]]), 2) < 1e-12

    def test_full_interval(self, m2):
        e = nc.spectral_projection(m2.identity(), (0.0, 4.0))
        assert nc.lp_norm(e.element - m2.identity(), 2) < 1e-12

    def test_rank_one(self, m2):
        h = single(m2, [[1, 1], [1, 1]])
        e = nc.spectral_projection(h, (1.5, math.inf))
        assert nc.lp_norm(e.element - 0.5 * single(m2, [[1, 1], [1, 1]]), 2) < 1e-12

    def test_rejects_non_hermitian(self, m2):
        with pytest.raises(nc.DomainError):
            nc.spectral_projection(single(m2, [[0, 1], [0, 0]]), (0.0, 1.0))

    def test_commutes_with_argument(self, m23):
        h = rand(m23, 5, "hermitian")
        e = nc.spectral_projection(h, (0.0, math.inf)).element
        assert nc.lp_norm(e @ h - h @ e, 2) < 1e-10

    def test_disjoint_cover_sums_to_identity(self, m23):
        for seed in range(5):
            h = rand(m23, seed, "hermitian")
            eigs = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in h.blocks]))
            cuts = [(a + b) / 2 for a, b in zip(eigs, eigs[1:]) if b - a > 1e-8]
            edges = [-math.inf] + cuts + [math.inf]
            total = m23.zero()
            for lo, hi in zip(edges, edges[1:]):
                total = total + nc.spectral_projection(h, (lo, hi)).element
            assert nc.lp_norm(total - m23.identity(), 2) < 1e-10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_range_projection_of_one_matrix_is_the_product_of_its_columns(self, n):
        """One matrix, though it runs as a stack of one, keeps the bits of the
        product of its selected columns, at every rank 0..n."""
        v = np.linalg.eigh(rand(nc.TracialAlgebra([n]), 60 + n, "hermitian").blocks[0])[1]
        rng, at = np.random.Generator(np.random.Philox(n)), np.arange(n)
        for rank in range(n + 1):
            for mask in (at < rank, at >= n - rank, np.isin(at, rng.permutation(n)[:rank])):
                vs = v[:, mask]
                want = vs @ vs.conj().T
                got = algebra._range_projection(v, mask)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_float_cut_equals_an_array_cut_on_a_stack_of_one(self, m23):
        h = rand(m23, 61, "hermitian")
        eigs = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in h.blocks]))
        for cut in [eigs[0] - 1.0, *((eigs[1:] + eigs[:-1]) / 2), math.inf]:
            by_float = nc.spectral_projection(nc.stack([h]), (-1e3, float(cut)))
            by_array = nc.spectral_projection(nc.stack([h]), (-1e3, np.array([cut])))
            assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                       for a, b in zip(by_float.element.blocks, by_array.element.blocks))


class TestProjMeet:
    def test_meet_with_identity(self, m2):
        e = nc.Projection(m2.identity())
        f = nc.Projection(single(m2, [[1, 0], [0, 0]]))
        m = nc.proj_meet(e, f)
        assert nc.lp_norm(m.element - f.element, 2) < 1e-12

    def test_transverse_ranges_meet_at_zero(self, m2):
        e = nc.Projection(0.5 * single(m2, [[1, 1], [1, 1]]))
        f = nc.Projection(single(m2, [[1, 0], [0, 0]]))
        assert nc.lp_norm(nc.proj_meet(e, f).element, 2) < 1e-12

    def test_idempotent(self, m23):
        e = nc.Projection(nc.random_element(m23, 6, "projection-like"))
        assert nc.lp_norm(nc.proj_meet(e, e).element - e.element, 2) < 1e-10

    def test_commutative_and_dominated(self, m23):
        e = nc.Projection(nc.random_element(m23, 7, "projection-like"))
        f = nc.Projection(nc.random_element(m23, 8, "projection-like"))
        m1, m2_ = nc.proj_meet(e, f), nc.proj_meet(f, e)
        assert nc.lp_norm(m1.element - m2_.element, 2) < 1e-10
        for p in (e, f):
            assert nc.min_eigenvalue(p.element - m1.element, tol=1e-8) >= -1e-9

    def test_largest_dominated_on_diagonal_family(self, m23):
        rng = np.random.Generator(np.random.Philox(11))
        masks = [tuple(rng.integers(0, 2, n)) for n in m23.block_dims], \
                [tuple(rng.integers(0, 2, n)) for n in m23.block_dims]
        e = nc.Projection(m23.element([np.diag(np.array(m, dtype=float)) for m in masks[0]]))
        f = nc.Projection(m23.element([np.diag(np.array(m, dtype=float)) for m in masks[1]]))
        want = m23.element([np.diag(np.minimum(a, b).astype(float))
                            for a, b in zip(masks[0], masks[1])])
        m = nc.proj_meet(e, f)
        assert nc.lp_norm(m.element - want, 2) < 1e-10
        # any sub-mask projection g <= e, f is dominated by the meet
        g = m23.element([np.diag((np.minimum(a, b) * np.array([1] + [0] * (len(a) - 1))).astype(float))
                         for a, b in zip(masks[0], masks[1])])
        assert nc.min_eigenvalue(m.element - g, tol=1e-8) >= -1e-9


class TestLoewner:
    def test_identity_positive(self, m2):
        assert nc.min_eigenvalue(m2.identity(), 1e-10) >= -1e-10

    def test_signature_not_positive(self, m2):
        assert not nc.min_eigenvalue(single(m2, [[1, 0], [0, -1]]), 1e-10) >= -1e-10

    def test_submartingale_difference(self, m2_chain, m2_martingale):
        x = m2_martingale
        sq = [nc.abs2(v) for v in x.values]
        for t in range(1, 3):
            for s in range(t):
                diff = m2_chain.levels[s].expect(sq[t]) - sq[s]
                assert nc.min_eigenvalue(diff, 1e-10) >= -1e-10

    def test_rejects_non_hermitian(self, m2):
        with pytest.raises(nc.DomainError):
            nc.min_eigenvalue(single(m2, [[0, 1], [0, 0]]), 1e-10)


class TestElementArithmetic:
    def test_structure_mismatch(self, m2, m23):
        with pytest.raises(nc.StructureError):
            m2.identity() + m23.identity()

    def test_block_shape_mismatch(self, m2):
        with pytest.raises(nc.StructureError):
            m2.element([np.eye(3)])

    def test_star_is_involutive_antihomomorphism(self, m23):
        x, y = rand(m23, 12), rand(m23, 13)
        assert nc.lp_norm((x @ y).adjoint() - y.adjoint() @ x.adjoint(), 2) < 1e-12
        assert nc.lp_norm(x.adjoint().adjoint() - x, 2) == 0.0

    def test_product_requires_matmul(self, m2):
        with pytest.raises(TypeError):
            m2.identity() * m2.identity()

    def test_immutable(self, m2):
        x = m2.identity()
        with pytest.raises(AttributeError):
            x.blocks = ()
        with pytest.raises(ValueError):
            x.blocks[0][0, 0] = 5.0

    def test_projection_rejects_non_idempotent(self, m2):
        with pytest.raises(nc.DomainError):
            nc.Projection(2.0 * m2.identity())


class TestFunctionalCalculus:
    def test_psd_sqrt_squares_back(self, m23):
        x = rand(m23, 14, "positive")
        r = nc.psd_sqrt(x)
        assert nc.lp_norm(r @ r - x, 2) < 1e-10

    def test_hermitian_apply_identity_function(self, m23):
        h = rand(m23, 15, "hermitian")
        assert nc.lp_norm(nc.hermitian_apply(h, lambda w: w) - h, 2) < 1e-12

    def test_min_eigenvalue_matches_numpy(self, m23):
        h = rand(m23, 16, "hermitian")
        want = min(np.linalg.eigvalsh(b).min() for b in h.blocks)
        assert nc.min_eigenvalue(h) == pytest.approx(want)


class TestSpectralMemo:
    """Spectral data is computed once per element and never changes."""

    SCALARS = (
        lambda x: nc.lp_norm(x, 3.0),
        lambda x: nc.lp_norm(x, 8.0),
        lambda x: nc.lp_norm(x, math.inf),
        lambda x: nc.lp_norm(x, 1.0),
        nc.hermiticity_defect,
        nc.min_eigenvalue,
        lambda x: nc.min_eigenvalue(x, 1e-10) >= -1e-10,
    )
    ELEMENTS = (
        nc.psd_sqrt,
        lambda x: nc.hermitian_apply(x, np.exp),
        lambda x: nc.spectral_projection(x, (0.5, math.inf)).element,
    )

    def test_cached_values_equal_a_fresh_element(self, m23):
        x = rand(m23, 20, "positive")
        for f in self.SCALARS:
            first = f(x)
            assert f(x) == first == f(m23.element(x.blocks))
        for f in self.ELEMENTS:
            first = f(x)
            for again in (f(x), f(m23.element(x.blocks))):
                assert all(np.array_equal(a, b) for a, b in zip(again.blocks, first.blocks))

    def test_norms_share_one_svd_per_block(self, m23, monkeypatch):
        x = rand(m23, 21)
        counts = count_linalg(monkeypatch)
        for p in (3.0, 8.0, math.inf, 3.0):
            nc.lp_norm(x, p)
        assert counts["svd"] == m23.nblocks

    def test_one_eigh_and_one_gate_per_block(self, m23, monkeypatch):
        h = rand(m23, 22, "positive")
        counts = count_linalg(monkeypatch)
        nc.min_eigenvalue(h)
        nc.min_eigenvalue(h, 1e-10)
        nc.psd_sqrt(h)
        nc.psd_sqrt(h)
        # h is Hermitian bit for bit, so the Frobenius gate decides without an SVD
        assert counts["svd"] == 0
        nc.spectral_projection(h, (1.0, math.inf))
        assert counts["eigh"] == m23.nblocks

    def test_failed_gate_is_not_cached_as_success(self, m2):
        x = single(m2, [[0, 1], [0, 0]])
        for _ in range(2):
            with pytest.raises(nc.DomainError):
                nc.psd_sqrt(x)

    def test_cached_arrays_are_read_only(self, m23):
        h = rand(m23, 23, "hermitian")
        want = nc.min_eigenvalue(h)

        def overwrite(w):
            w[0] = 1e6
            return w

        with pytest.raises(ValueError):
            nc.hermitian_apply(h, overwrite)
        assert nc.min_eigenvalue(h) == want
        nc.lp_norm(h, 3.0)
        memo = h._spectral
        cached = list(memo["sv"]) + [a for pair in memo["eigh"] for a in pair]
        assert not any(a.flags.writeable for a in cached)

    def test_element_still_rejects_setattr(self, m23):
        x = rand(m23, 24)
        nc.lp_norm(x, 3.0)
        for name in ("blocks", "algebra", "_spectral"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)


SWEEP_ALGEBRAS = pytest.mark.parametrize(
    "dims, weights", [([n], None) for n in range(2, 9)] + [([2, 3], [0.4, 0.6])],
    ids=[f"M_{n}" for n in range(2, 9)] + ["M_2+M_3"])


class TestProjectionMemo:
    """A spectral projection is memoized per selection pattern on its element,
    and a projection's complement on the projection's element."""

    @staticmethod
    def gaps(h):
        """The pairs of consecutive distinct eigenvalues of h, over all blocks."""
        eigs = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in h.blocks]))
        return [(a, b) for a, b in zip(eigs, eigs[1:]) if b - a > 1e-6]

    def test_cuts_with_one_pattern_share_one_projection(self, m23):
        h = rand(m23, 30, "positive")
        lo, hi = self.gaps(h)[1]
        e = nc.spectral_projection(h, (lo + 0.25 * (hi - lo), math.inf))
        assert nc.spectral_projection(h, (lo + 0.75 * (hi - lo), math.inf)) is e
        assert nc.spectral_projection(h, (hi - 1e-3 * (hi - lo), 1e6)) is e

    def test_cuts_with_other_patterns_do_not(self, m23):
        h = rand(m23, 31, "positive")
        projections = [nc.spectral_projection(h, ((lo + hi) / 2, math.inf))
                       for lo, hi in self.gaps(h)]
        assert len(projections) == 4
        assert len({id(e) for e in projections}) == len(projections)
        traces = [nc.trace(e.element).real for e in projections]
        assert traces == sorted(traces, reverse=True) and len(set(traces)) == len(traces)

    def test_complement_is_one_object_equal_to_one_minus_e(self, m23):
        e = nc.spectral_projection(rand(m23, 32, "positive"), (1.0, math.inf))
        c = e.complement()
        assert e.complement() is c
        want = m23.identity() - e.element
        assert all(np.array_equal(a, b) for a, b in zip(c.element.blocks, want.blocks))

    @staticmethod
    def sweep(x):
        """x's certificates at the benchmark's 50 thresholds, and the number of
        distinct selection patterns among them."""
        top = nc.lp_norm(x, math.inf)
        etas = np.linspace(top / 50.0, 1.05 * top, 50).tolist()
        swept = [nc.chebyshev_projection(x, eta) for eta in etas]
        eigs = [np.linalg.eigvalsh(b) for b in x.blocks]
        patterns = {tuple((w >= eta - 1e-12).tobytes() for w in eigs) for eta in etas}
        return swept, len(patterns)

    @staticmethod
    def assert_fresh(x, swept):
        """Every certificate equals the one a fresh copy of x gives."""
        for s in swept:
            fresh = nc.chebyshev_projection(x.algebra.element(x.blocks), s.eta)
            assert (s.eta, s.trace_value, s.trace_bound, s.tail_norm) == \
                (fresh.eta, fresh.trace_value, fresh.trace_bound, fresh.tail_norm)
            assert all(np.array_equal(a, b) for a, b in
                       zip(s.projection.element.blocks, fresh.projection.element.blocks))

    @SWEEP_ALGEBRAS
    def test_sweep_takes_one_tail_norm_per_pattern(self, monkeypatch, dims, weights):
        """One SVD per block for ||x|| and one per block for each selection
        pattern's tail norm."""
        alg = nc.TracialAlgebra(dims, weights)
        x = rand(alg, 33, "positive")
        counts = count_linalg(monkeypatch)
        swept, patterns = self.sweep(x)
        assert counts["svd"] == alg.nblocks * (patterns + 1)
        self.assert_fresh(x, swept)

    @SWEEP_ALGEBRAS
    def test_sweep_takes_one_trace_of_x_and_one_per_pattern(self, monkeypatch, dims, weights):
        x = rand(nc.TracialAlgebra(dims, weights), 33, "positive")
        traced = []

        def spy(y, _real=algebra.trace):
            traced.append(y)
            return _real(y)
        for module in (algebra, inequalities):
            monkeypatch.setattr(module, "trace", spy)
        swept, patterns = self.sweep(x)
        assert traced[0] is x and len(traced) == 1 + patterns
        self.assert_fresh(x, swept)

    def test_failed_positivity_gate_is_not_cached_as_success(self, m23):
        x = m23.element([np.diag([1.0, -1.0]), np.eye(3)])
        for _ in range(2):
            with pytest.raises(nc.DomainError, match="positive semidefinite"):
                nc.chebyshev_projection(x, 0.5)

    def test_stacked_projections_after_other_cuts_equal_fresh_ones(self, m23):
        h = nc.stack([rand(m23, 40 + k, "positive") for k in range(6)])
        top = nc.lp_norm(h, math.inf)
        for scale in np.linspace(0.02, 1.05, 50).tolist():
            cut = top * scale
            swept = nc.spectral_projection(h, (0.0, cut))
            fresh = nc.spectral_projection(m23.element(h.blocks), (0.0, cut))
            for e, f in ((swept, fresh), (swept.complement(), fresh.complement())):
                assert all(np.array_equal(a, b)
                           for a, b in zip(e.element.blocks, f.element.blocks))
        assert nc.spectral_projection(h, (0.0, cut)) is swept

    def test_preconditions_still_raise_on_a_second_call(self, m23):
        h = rand(m23, 34, "positive")
        nc.spectral_projection(h, (1.0, math.inf))
        stacked = nc.stack([h, h])
        nc.spectral_projection(stacked, (0.0, np.array([1.0, 2.0])))
        for _ in range(2):
            with pytest.raises(nc.DomainError, match="empty interval"):
                nc.spectral_projection(h, (1.0, 1.0))
            with pytest.raises(nc.DomainError, match="empty interval"):
                nc.spectral_projection(stacked, (0.0, np.array([1.0, 0.0])))
        # a gate this loose memoizes the eigendecomposition; the projection's gate still fails
        x = m23.element([np.array([[0, 1], [0, 0]]), np.eye(3)])
        nc.min_eigenvalue(x, 10.0)
        for _ in range(2):
            with pytest.raises(nc.DomainError, match="not Hermitian"):
                nc.spectral_projection(x, (0.0, math.inf))
