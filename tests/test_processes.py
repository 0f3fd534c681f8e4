"""Grids, filtrations, adapted processes, martingale generation and checks."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncmart as nc
from ncmart import processes
from ncmart.harness.config import MAX_INSTANCES
from conftest import (centered_terminal, conjugated_levels, nan_element, nan_tolerant,
                      single)

SRC = str(Path(nc.__file__).resolve().parents[1])


class TestTimeGrid:
    def test_needs_two_points(self):
        with pytest.raises(nc.StructureError):
            nc.TimeGrid([0.0])

    def test_strictly_increasing(self):
        with pytest.raises(nc.StructureError):
            nc.TimeGrid([0.0, 1.0, 1.0])
        with pytest.raises(nc.StructureError):
            nc.TimeGrid([-1.0, 1.0])

    @pytest.mark.parametrize("times", [[0.0, math.nan, 2.0], [0.0, 1.0, math.inf],
                                       [math.nan, 1.0], [-math.inf, 1.0]])
    def test_finite(self, times):
        with pytest.raises(nc.StructureError, match="finite"):
            nc.TimeGrid(times)


class TestFiltration:
    def test_non_increasing_rejected(self, m2):
        levels = [
            nc.SubalgebraLevel.block_full(m2, [[[0], [1]]]),
            nc.SubalgebraLevel.scalars(m2),
            nc.SubalgebraLevel.block_full(m2, [[[0, 1]]]),
        ]
        with pytest.raises(nc.StructureError, match="level 0"):
            nc.Filtration(nc.TimeGrid([0.0, 1.0, 2.0]), levels)

    def test_non_increasing_general_levels_rejected(self, m2):
        # the diagonal and a conjugate of it: neither holds the other
        levels = conjugated_levels(m2, [nc.SubalgebraLevel.scalars(m2),
                                        nc.SubalgebraLevel.block_full(m2, [[[0], [1]]])], 5)
        diagonal = nc.SubalgebraLevel.block_full(m2, [[[0], [1]]])
        full = nc.SubalgebraLevel.block_full(m2, [[[0, 1]]])
        with pytest.raises(nc.StructureError, match="level 1 is not contained in level 2"):
            nc.Filtration(nc.TimeGrid([0.0, 1.0, 2.0, 3.0]), [*levels, diagonal, full])

    def test_final_level_must_be_full(self, m2):
        levels = [nc.SubalgebraLevel.scalars(m2),
                  nc.SubalgebraLevel.block_full(m2, [[[0], [1]]])]
        with pytest.raises(nc.StructureError, match="full"):
            nc.Filtration(nc.TimeGrid([0.0, 1.0]), levels)

    def test_level_index_at(self, m2_chain):
        assert m2_chain.level_index_at(0.0) == 0
        assert m2_chain.level_index_at(0.5) == 0
        assert m2_chain.level_index_at(1.0) == 1
        assert m2_chain.level_index_at(7.0) == 2
        for time in (-0.5, math.nan):  # NaN precedes no time, so a plain < gate passed it
            with pytest.raises(nc.DomainError):
                m2_chain.level_index_at(time)


class TestAdaptedProcess:
    def test_rejects_unadapted_values(self, m2_chain, m2):
        values = [single(m2, [[0, 1], [0, 0]]), m2.zero(), m2.zero()]
        with pytest.raises(nc.StructureError, match="not adapted"):
            nc.AdaptedProcess(m2_chain, values)

    def test_rejects_nan_values(self, m2_chain, m2):
        with pytest.raises(nc.StructureError, match="not adapted"):
            nc.AdaptedProcess(m2_chain, [nan_element(m2)] * 3)

    def test_arithmetic_and_adjoint(self, m2_chain, m2_terminal):
        x = nc.martingale_from_terminal(m2_chain, m2_terminal)
        y = 2.0 * x - (1j * x)
        for v, w in zip(y.values, x.values):
            assert nc.lp_norm(v - (2.0 - 1j) * w, 2) < 1e-14
        xs = x.adjoint()
        for v, w in zip(xs.values, x.values):
            assert nc.lp_norm(v - w.adjoint(), 2) == 0.0


class TestMartingaleGeneration:
    def test_identity_terminal_is_constant(self, m2_chain, m2):
        x = nc.martingale_from_terminal(m2_chain, m2.identity())
        for v in x.values:
            assert nc.lp_norm(v - m2.identity(), 2) < 1e-14

    def test_worked_example_values(self, m2_martingale, m2):
        want = [m2.zero(), single(m2, [[1, 0], [0, -1]]), single(m2, [[1, 1], [1, -1]])]
        for v, w in zip(m2_martingale.values, want):
            assert nc.lp_norm(v - w, 2) < 1e-14

    def test_level_zero_terminal_is_constant(self, m2_chain, m2):
        x = nc.martingale_from_terminal(m2_chain, 2.5 * m2.identity())
        for v in x.values:
            assert nc.lp_norm(v - 2.5 * m2.identity(), 2) < 1e-14

    def test_generated_martingale_passes(self, m2_martingale):
        assert m2_martingale.martingale_residual() <= 1e-10

    def test_non_finite_terminal_rejected(self, m2_chain, m2, m2_terminal):
        # one element, and a stack in which only the middle element is NaN
        for terminal in (nan_element(m2), nc.stack([m2_terminal, nan_element(m2), m2_terminal])):
            with pytest.raises(nc.DomainError, match="finite terminal"):
                nc.martingale_from_terminal(m2_chain, terminal)

    def test_non_finite_entry_in_the_last_block_rejected(self, pool):
        for _, filt in pool:
            blocks = [np.zeros((n, n), dtype=complex) for n in filt.algebra.block_dims]
            blocks[-1][-1, 0] = math.inf
            with pytest.raises(nc.DomainError, match="finite terminal"):
                nc.martingale_from_terminal(filt, filt.algebra.element(blocks))


class TestMartingaleCheck:
    def test_non_martingale_detected(self, m2_chain, m2):
        values = [m2.zero(), single(m2, [[1, 0], [0, -1]]), m2.identity()]
        p = nc.AdaptedProcess(m2_chain, values)
        # worst pair is (s=1, t=2): ||E_1(I) - diag(1,-1)||_2 = ||diag(0,2)||_2 = sqrt(2)
        assert p.martingale_residual() == pytest.approx(np.sqrt(2))

    def test_constant_process(self, m2_chain, m2):
        p = nc.AdaptedProcess(m2_chain, [m2.identity()] * 3)
        assert p.martingale_residual() <= 1e-12

    def test_require_martingale_rejects(self, m2_chain, m2):
        from ncmart.processes import require_martingale
        p = nc.AdaptedProcess(m2_chain, [m2.identity()] * 3)
        require_martingale(p, "test")
        for values in ([m2.zero(), m2.zero(), m2.identity()], [nan_element(m2)] * 3):
            p = nc.AdaptedProcess(m2_chain, values, validate=False)
            with pytest.raises(nc.DomainError, match="needs a martingale"):
                require_martingale(p, "test")

    def test_nan_value_makes_the_residual_nan(self, m2_chain, m2_martingale):
        values = m2_martingale.values[:-1] + (nan_element(m2_chain.algebra),)
        p = nc.AdaptedProcess(m2_chain, values, validate=False)
        assert math.isnan(p.martingale_residual())
        assert math.isnan(nc.AdaptedProcess(m2_chain, [nan_element(m2_chain.algebra)] * 3,
                                            validate=False).martingale_residual())


class TestSubmartingale:
    def test_generated_martingale(self, pool):
        for name, filt in pool[:4]:
            x = nc.martingale_from_terminal(
                filt, nc.random_element(filt.algebra, 5, "general"))
            assert nc.submartingale_abs2_defect(x) <= 1e-9, name

    def test_constant_process(self, m2_chain, m2):
        p = nc.AdaptedProcess(m2_chain, [m2.identity()] * 3)
        assert nc.submartingale_abs2_defect(p) <= 1e-12

    def test_nan_value_makes_the_defect_nan(self, m2_chain, m2_martingale, monkeypatch):
        # the eigenvalues of a NaN element are a LinAlgError, so stand in NaN for them
        nan_tolerant(monkeypatch, processes, "min_eigenvalue")
        values = m2_martingale.values[:-1] + (nan_element(m2_chain.algebra),)
        p = nc.AdaptedProcess(m2_chain, values, validate=False)
        assert math.isnan(nc.submartingale_abs2_defect(p))

    def test_unitary_process_saturates(self, m2_chain, m2):
        u0 = m2.identity()
        u1 = single(m2, [[1, 0], [0, -1]])
        p = nc.AdaptedProcess(m2_chain, [u0, u1, u1])
        assert nc.submartingale_abs2_defect(p) < 1e-12


class TestIncrements:
    def test_worked_example(self, m2_martingale, m2):
        inc = nc.increments(m2_martingale, [0, 1, 2])
        assert nc.lp_norm(inc[0] - single(m2, [[1, 0], [0, -1]]), 2) < 1e-14
        assert nc.lp_norm(inc[1] - single(m2, [[0, 1], [1, 0]]), 2) < 1e-14

    def test_endpoints_only(self, m2_martingale):
        inc = nc.increments(m2_martingale, [0, 2])
        assert len(inc) == 1
        assert nc.lp_norm(inc[0] - (m2_martingale.values[2] - m2_martingale.values[0]), 2) == 0.0

    def test_constant_process(self, m2_chain, m2):
        p = nc.AdaptedProcess(m2_chain, [m2.identity()] * 3)
        for d in nc.increments(p, [0, 1, 2]):
            assert nc.lp_norm(d, 2) == 0.0

    def test_telescoping(self, pool):
        name, filt = pool[2]
        x = nc.martingale_from_terminal(filt, nc.random_element(filt.algebra, 8))
        total = filt.algebra.zero()
        for d in nc.increments(x, nc.full_partition(x)):
            total = total + d
        assert nc.lp_norm(total - (x.values[-1] - x.values[0]), 2) < 1e-12

    def test_invalid_subset(self, m2_martingale):
        with pytest.raises(nc.DomainError):
            nc.increments(m2_martingale, [2, 1])
        with pytest.raises(nc.DomainError):
            nc.increments(m2_martingale, [0, 5])
        with pytest.raises(nc.DomainError):
            nc.increments(m2_martingale, [1])

    def test_non_integral_indices_are_rejected(self, m2_martingale):
        # they would otherwise be truncated to another partition, (0, 1, 4) or (0, 2)
        assert processes.as_partition(5, np.array([0, 2, 4])) == (0, 2, 4)
        for partition in ([0, 1.9, 4.2], [0, 2.0]):
            with pytest.raises(nc.DomainError, match="partition indices must be integers"):
                processes.as_partition(5, partition)
        with pytest.raises(nc.DomainError, match=r"\(0, 1.5, 2\)"):
            nc.quadratic_variation_sum(m2_martingale, [0, 1.5, 2])


def test_partial_sums_add_each_term_to_the_sum_before_it(m2):
    terms = [single(m2, [[1, 2], [0, 1]]), single(m2, [[0, 1j], [3, 0]]), m2.identity()]
    sums = processes.partial_sums(m2, terms)
    assert len(sums) == 4 and np.all(sums[0].blocks[0] == 0)
    for k, t in enumerate(terms):
        assert np.all(sums[k + 1].blocks[0] == sums[k].blocks[0] + t.blocks[0])
    assert len(processes.partial_sums(m2, [])) == 1


class TestRandomElements:
    def test_deterministic(self, m2):
        a = nc.random_element(m2, 42, "general")
        b = nc.random_element(m2, 42, "general")
        assert nc.lp_norm(a - b, 2) == 0.0

    def test_positive_kind(self, m2):
        x = nc.random_element(m2, 1, "positive")
        assert nc.min_eigenvalue(x, 0.0) >= 0.0

    def test_hermitian_kind(self, m2):
        x = nc.random_element(m2, 2, "hermitian")
        assert nc.hermiticity_defect(x) == 0.0

    def test_projection_kind(self, m2):
        nc.Projection(nc.random_element(m2, 3, "projection-like"))  # validates

    def test_unknown_kind(self, m2):
        with pytest.raises(nc.DomainError):
            nc.random_element(m2, 0, "bogus")

    def test_spawned_streams_differ(self, m2):
        g1, g2 = nc.spawn_generators(9, 2)
        a = nc.random_element(m2, g1)
        b = nc.random_element(m2, g2)
        assert nc.lp_norm(a - b, 2) > 1e-3


def same_state(a: dict, b: dict) -> bool:
    """Equal bit-generator state dicts (their keys and counters are arrays)."""
    return a.keys() == b.keys() and all(
        same_state(a[k], b[k]) if isinstance(a[k], dict) else np.array_equal(a[k], b[k])
        for k in a)


def drawn_alone(algebra, rng, kind):
    """The element that one stream draws of ``kind``, one block after another,
    as a reference independent of the stacked draw."""
    blocks = []
    for n in algebra.block_dims:
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        if kind == "hermitian":
            g = (g + g.conj().T) / 2.0
        elif kind == "positive":
            h = g.conj().T @ g
            g = (h + h.conj().T) / 2.0
        elif kind == "projection-like":
            rank = int(rng.integers(1, n + 1))
            q = np.linalg.qr(g)[0][:, :rank]
            g = q @ q.conj().T
            g = (g + g.conj().T) / 2.0
        blocks.append(g)
    return blocks


class TestStreamsAndStackedDraws:
    """The spawned streams are SeedSequence's children bit for bit, and the
    stacked draw gives each stream's element and leaves each stream where
    drawing alone leaves it."""

    # 1, 1, 1, 2, 3, 4, 5 and 8 words of 32 bits
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 - 1, 2**128, 2**255 + 9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_are_the_seed_sequence_children(self, seed):
        for n in (0, 1, 2, MAX_INSTANCES):
            streams = nc.spawn_generators(seed, n)
            children = np.random.SeedSequence(seed).spawn(n)
            assert len(streams) == n
            assert all(same_state(g.bit_generator.state, np.random.Philox(c).state)
                       for g, c in zip(streams, children))

    @pytest.mark.parametrize("dims", [[1], [2], [2, 3], [8]])
    @pytest.mark.parametrize("kind", processes.RANDOM_KINDS)
    def test_stacked_draw_equals_each_stream_alone(self, dims, kind):
        algebra = nc.TracialAlgebra(dims)
        for n in (1, 2, 7):
            stacked = nc.random_stack(algebra, nc.spawn_generators(5, n), kind)
            alone, reference = nc.spawn_generators(5, n), nc.spawn_generators(5, n)
            for k in range(n):
                one = nc.random_element(algebra, alone[k], kind)
                for s, a, r in zip(stacked.blocks, one.blocks,
                                   drawn_alone(algebra, reference[k], kind)):
                    assert s[k].tobytes() == a.tobytes() == r.tobytes()
            streams = nc.spawn_generators(5, n)
            nc.random_stack(algebra, streams, kind)
            assert [g.standard_normal() for g in streams] \
                == [g.standard_normal() for g in alone] \
                == [g.standard_normal() for g in reference]

    def test_importing_ncmart_leaves_numpy_random_unimported(self):
        # a stream is made only on demand, so the import (each command's set-up) stays cheap
        code = "import sys, ncmart; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "False"


class TestMartingaleIdentities:
    """Per-step identities for generated martingales across the pool."""

    @pytest.mark.parametrize("seed", range(4))
    def test_null_increments(self, pool, seed):
        name, filt = pool[seed % len(pool)]
        x = nc.martingale_from_terminal(filt, nc.random_element(filt.algebra, seed))
        for k, dx in enumerate(nc.increments(x, nc.full_partition(x)), 1):
            assert nc.lp_norm(filt.levels[k - 1].expect(dx), 2) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_conditioned_square_increment(self, pool, seed):
        name, filt = pool[(seed + 2) % len(pool)]
        x = nc.martingale_from_terminal(filt, nc.random_element(filt.algebra, seed + 10))
        sq = [nc.abs2(v) for v in x.values]
        for k in range(1, len(x.values)):
            lhs = filt.levels[k - 1].expect(nc.abs2(x.values[k] - x.values[k - 1]))
            rhs = filt.levels[k - 1].expect(sq[k] - sq[k - 1])
            assert nc.lp_norm(lhs - rhs, 2) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_energy_identity(self, pool, seed):
        name, filt = pool[(seed + 4) % len(pool)]
        x = nc.martingale_from_terminal(filt, centered_terminal(filt.algebra, seed + 20))
        total = sum(nc.trace(nc.abs2(dx)).real
                    for dx in nc.increments(x, nc.full_partition(x)))
        want = nc.trace(nc.abs2(x.values[-1])).real - nc.trace(nc.abs2(x.values[0])).real
        assert abs(total - want) < 1e-10

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_norm_monotone(self, pool, p):
        name, filt = pool[3]
        x = nc.martingale_from_terminal(filt, nc.random_element(filt.algebra, 33))
        norms = [nc.lp_norm(v, p) for v in x.values]
        assert all(a <= b + 1e-9 for a, b in zip(norms, norms[1:]))


class TestRefinement:
    def test_lifted_process_matches_on_old_times(self, m2_martingale):
        filt = m2_martingale.filtration
        fine, src = nc.refined_filtration(filt, nc.refine_times(filt.grid.times, 2))
        lifted = nc.lift_process(m2_martingale, fine, src)
        assert lifted.martingale_residual() <= 1e-10
        for t_old, v_old in zip(filt.grid.times, m2_martingale.values):
            k = fine.grid.times.index(t_old)
            assert nc.lp_norm(lifted.values[k] - v_old, 2) == 0.0

    def test_refined_grid_must_contain_times(self, m2_martingale):
        with pytest.raises(nc.DomainError):
            nc.refined_filtration(m2_martingale.filtration, [0.0, 0.7, 2.0])
