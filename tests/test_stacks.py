"""Stacks of elements: the kernels give each stacked element exactly the
bits they give it alone, the stacked ratio sweep keeps every
per-instance outcome, every command reports each instance whole or not
at all, and the gates of a stack raise when one element fails them."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import ncmart as nc
from ncmart import algebra, inequalities
from ncmart.harness import cmd_ratios, commands, load_config, preset
from ncmart.harness.checks import error_checks
from conftest import encode_basis, structures

P_NORMS = (1.5, 2.0, 3.0, 4.0, 8.0, math.inf)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_element(stacked: nc.AlgElement, k: int, single: nc.AlgElement) -> bool:
    return all(same_bits(s[k], m) for s, m in zip(stacked.blocks, single.blocks))


def element_at(stacked, k):
    """Element k of a stack."""
    return nc.AlgElement(stacked.algebra, [b[k] for b in stacked.blocks])


def terminals(config):
    """The terminal of each instance, as the commands draw them."""
    drawn = commands._instance_streams(config)
    stacked = commands._terminals(config, drawn)
    return [element_at(stacked, k) for k in range(len(drawn))]


def per_instance_report(config):
    """Rows and failing records of the ratio sweep run one instance at a time
    through the single-element API."""
    rows, records = [], []
    grid = nc.full_partition(config.filtration)
    for i, term in enumerate(terminals(config)):
        try:
            x = nc.martingale_from_terminal(config.filtration, term)
            for p in config.p_values:
                try:
                    bg = nc.bg_ratio(x, grid, p)
                    dd = nc.dual_doob_ratio(x, grid, p)
                except nc.UndefinedRatioError:
                    continue
                rows.append({"p": p, "instance": i, "bg_ratio": bg,
                             "dual_doob_ratio": dd, "seed": config.seed})
        except (nc.DomainError, np.linalg.LinAlgError) as exc:
            records += [vars(r) for r in error_checks(exc, i).records()]
    return rows, records


def assert_sweep_matches_per_instance(config):
    rows, records = per_instance_report(config)
    report = cmd_ratios(config)
    assert report.tables["ratios"] == rows
    assert [vars(r) for r in report.records if not r.passed and r.check != "ratios_finite"] \
        == records
    return report


class TestStackedKernels:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(config=structures())
    def test_stacked_kernels_equal_single_elements_bit_for_bit(self, config):
        filt, singles = config.filtration, terminals(config)
        xs = nc.stack(singles)
        grid = nc.full_partition(filt)
        for level in filt.levels:
            out = level.expect(xs)
            assert all(same_element(out, k, level.expect(t)) for k, t in enumerate(singles))
        stacked = nc.martingale_from_terminal(filt, xs).square_sums(grid)
        for k, t in enumerate(singles):
            alone = nc.martingale_from_terminal(filt, t).square_sums(grid)
            for s_el, a_el in zip(stacked, alone):
                assert same_element(s_el, k, a_el)
                for p in P_NORMS:
                    assert same_bits(nc.lp_norm(s_el, p)[k], nc.lp_norm(a_el, p))
            assert same_element(nc.psd_sqrt(stacked[0]), k, nc.psd_sqrt(alone[0]))
            for p in P_NORMS:
                assert same_bits(nc.lp_norm(xs, p)[k], nc.lp_norm(t, p))
        assert_sweep_matches_per_instance(config)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_stacked_two_norm_products_equal_vdot(self, n):
        # the np.vecdot that lp_norm(., 2) and the gates take, of one matrix (shape
        # ()) or of a stack, matches np.vdot per matrix bit for bit; a property of
        # the NumPy and BLAS build, so guarded here
        rng = np.random.Generator(np.random.Philox(n))
        for scale in 10.0 ** np.arange(-8, 9):
            for lead in ((1,), (2,), (5,), (64,), ()):
                m = scale * (rng.standard_normal((*lead, n, n))
                             + 1j * rng.standard_normal((*lead, n, n)))
                want = np.array([np.vdot(a, a).real for a in m.reshape(-1, n, n)]).reshape(lead)
                assert same_bits(algebra._vdots(m), want)

    def test_stack_keeps_its_shape_through_the_api(self, m2):
        xs = nc.stack([m2.identity(), 2.0 * m2.identity()])
        assert xs.blocks[0].shape == (2, 2, 2)
        assert (xs + m2.identity()).blocks[0].shape == (2, 2, 2)
        assert list(nc.trace(xs)) == [1.0, 2.0]
        assert list(nc.lp_norm(xs, 3.0)) == [1.0, 2.0]

    def test_blocks_of_one_element_share_the_stack_shape(self):
        alg = nc.TracialAlgebra([1, 2])
        with pytest.raises(nc.StructureError):
            alg.element([np.ones((2, 1, 1)), np.ones((3, 2, 2))])
        with pytest.raises(nc.StructureError):
            nc.stack([alg.identity(), nc.TracialAlgebra([2, 1]).identity()])


def hermitians(config, n):
    """n seeded Hermitian elements of the config's algebra."""
    algebra = config.filtration.algebra
    return [nc.random_element(algebra, rng, "hermitian")
            for rng in nc.spawn_generators(config.seed, n)]


def eigenvalues(x):
    return np.sort(np.concatenate([np.linalg.eigvalsh(m) for m in x.blocks]))


def rank_mixing_cuts(singles):
    """Per element, an upper cut that selects no eigenvalue, all of them, or
    (where there are two distinct ones) some: ranks 0, full and between."""
    cuts = []
    for k, h in enumerate(singles):
        w = eigenvalues(h)
        cuts.append([w[0] - 1.0, w[-1] + 1.0, (w[0] + w[-1]) / 2][k % 3])
    return np.array(cuts)


LOW = -1e3  # below every eigenvalue of the drawn elements


class TestStackedSpectralKernels:
    """Spectral projections, meets, least eigenvalues and Kolmogorov
    certificates of a stack whose elements have different ranks equal those
    of each element alone, bit for bit."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(config=structures())
    def test_spectral_projection_and_meet(self, config):
        singles, others = hermitians(config, 6), hermitians(config, 12)[6:]
        hs, gs = nc.stack(singles), nc.stack(others)
        cuts = rank_mixing_cuts(singles)
        for cut in (cuts, 0.0, math.inf):
            es = nc.spectral_projection(hs, (LOW, cut))
            alone = [nc.spectral_projection(h, (LOW, float(np.broadcast_to(cut, 6)[k])))
                     for k, h in enumerate(singles)]
            assert all(same_element(es.element, k, e.element) for k, e in enumerate(alone))
        es = nc.spectral_projection(hs, (LOW, cuts))
        ranks = {round(nc.trace(es.element)[k].real, 9) for k in range(6)}
        assert {0.0, 1.0} <= ranks
        fs = nc.spectral_projection(gs, (LOW, 0.0))
        for e, f in ((es, fs), (fs, es), (es, es)):
            meet = nc.proj_meet(e, f)
            for k in range(6):
                e_k, f_k = (nc.Projection(nc.AlgElement(p.algebra, [b[k] for b in p.element.blocks]))
                            for p in (e, f))
                assert same_element(meet.element, k, nc.proj_meet(e_k, f_k).element)

    def test_repr_of_a_stacked_projection(self, m2):
        e = nc.spectral_projection(nc.stack([m2.identity(), -1.0 * m2.identity()]), (0.0, 2.0))
        assert repr(e) == "Projection(trace=[1.000000 0.000000])"
        assert repr(nc.Projection(m2.identity())) == "Projection(trace=1.000000)"

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(config=structures())
    def test_min_eigenvalue(self, config):
        singles = hermitians(config, 5)
        stacked = nc.min_eigenvalue(nc.stack(singles))
        assert stacked.shape == (5,)
        assert all(same_bits(stacked[k], nc.min_eigenvalue(h)) for k, h in enumerate(singles))

    def test_chebyshev_certificates(self):
        """On weighted M_2 (+) M_3, over 50 thresholds from below every rank
        change to above the largest norm, ranks 0 to full in one stack."""
        alg = nc.TracialAlgebra([2, 3], [0.3, 0.7])
        singles = [alg.zero()] + [nc.random_element(alg, 50 + k, "positive") for k in range(5)]
        xs = nc.stack(singles)
        tops = nc.lp_norm(xs, math.inf)
        ranks = set()
        for eta in np.linspace(tops[1:].min() / 50.0, 1.05 * tops.max(), 50).tolist():
            cert = nc.chebyshev_projection(xs, eta)
            ranks.update(np.round(cert.trace_value, 9).tolist())
            assert cert.trace_value.shape == cert.trace_bound.shape == cert.tail_norm.shape \
                == (len(singles),)
            for k, x in enumerate(singles):
                one = nc.chebyshev_projection(x, eta)
                assert same_element(cert.projection.element, k, one.projection.element)
                assert all(same_bits(getattr(cert, key)[k], getattr(one, key))
                           for key in ("trace_value", "trace_bound", "tail_norm"))
        assert {0.0, 1.0} <= ranks
        with pytest.raises(nc.DomainError, match="positive semidefinite"):
            nc.chebyshev_projection(nc.stack([singles[1], -1.0 * singles[1]]), 1.0)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(config=structures())
    def test_epsilon_and_kolmogorov_certificates(self, config):
        filt, drawn = config.filtration, terminals(config)
        # a zero terminal certifies the whole algebra; the tiny and huge thresholds
        # certify (almost surely) nothing and everything
        singles = [0.0 * drawn[0]] + [t for t in drawn for _ in range(3)]
        x = nc.martingale_from_terminal(filt, nc.stack(singles))
        alone = [nc.martingale_from_terminal(filt, t) for t in singles]
        for q in (0.0, 30.0, 50.0, 100.0):
            eps = nc.epsilon_from_percentile(x, q)
            assert all(same_bits(eps[k], nc.epsilon_from_percentile(a, q))
                       for k, a in enumerate(alone))
        eps = nc.epsilon_from_percentile(x, 30.0)
        eps[2::3], eps[3::3] = 1e-6, 1e3
        for epsilon in (eps, 0.5):
            for side in ("left", "right"):
                cert = nc.kolmogorov_projection(x, epsilon, side)
                if epsilon is eps:
                    ranks = {round(t, 9) for t in nc.trace(cert.projection.element).real}
                    assert {0.0, 1.0} <= ranks
                for k, a in enumerate(alone):
                    one = nc.kolmogorov_projection(
                        a, float(np.broadcast_to(epsilon, len(singles))[k]), side)
                    assert same_element(cert.projection.element, k, one.projection.element)
                    assert all(same_element(f.element, k, g.element)
                               for f, g in zip(cert.meets, one.meets))
                    for key in ("epsilon", "trace_defect", "trace_bound"):
                        assert same_bits(np.broadcast_to(getattr(cert, key), len(singles))[k],
                                         getattr(one, key))
                    assert all(same_bits(s[k], t) for s, t in zip(cert.sup_norms, one.sup_norms))


# -- the same bits under a second BLAS kernel ----------------------------------

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SECOND_KERNEL = "Sandybridge"

# Run in a child process: the core stacked-vs-alone bit cases, printed as JSON
# with the kernel that ran them.
KERNEL_BITS = """
import json, math, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from payload_digest import blas_kernel  # it puts src/ on the path
import ncmart as nc
from ncmart import algebra

def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

rng, failed = np.random.Generator(np.random.Philox(7)), []
for n in range(1, 9):
    a, b = (rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
            for _ in range(2))
    h = a + algebra._adj(a)
    w, v = np.linalg.eigh(h)
    masks = rng.integers(0, 2, (6, n)).astype(bool)
    masks[1] = masks[0]  # two elements that share a selection pattern
    alg = nc.TracialAlgebra([n])
    x = alg.element([a])
    cases = {"matmul": (a @ b, [p @ q for p, q in zip(a, b)]),
             "svd": (np.linalg.svd(a, compute_uv=False),
                     [np.linalg.svd(m, compute_uv=False) for m in a]),
             "eigh w": (w, [np.linalg.eigh(m)[0] for m in h]),
             "eigh v": (v, [np.linalg.eigh(m)[1] for m in h]),
             "vdots": (algebra._vdots(a), [np.vdot(m, m).real for m in a]),
             "range projection": (algebra._range_projection(v, masks),
                                  [u[:, m] @ u[:, m].conj().T for u, m in zip(v, masks)])}
    for p in (1.5, 2.0, 3.0, 4.0, 8.0, math.inf):
        cases[f"lp_norm {p}"] = (nc.lp_norm(x, p), [nc.lp_norm(alg.element([m]), p) for m in a])
    failed += [f"{name} n={n}" for name, (stacked, alone) in cases.items()
               if not all(same(stacked[k], one) for k, one in enumerate(alone))]
print(json.dumps({"kernel": blas_kernel(), "failed": failed}))
"""


def test_stacked_kernels_keep_their_bits_under_a_second_blas_kernel():
    """Stacked matmul, svd, eigh, the 2-norm products, the range projection and
    the p-norms give each element the bits it gets alone under another kernel
    of the same OpenBLAS build too; the kernel is chosen for the child only."""
    spec = importlib.util.spec_from_file_location("payload_digest", SCRIPTS / "payload_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    env = {**os.environ, "OPENBLAS_CORETYPE": SECOND_KERNEL}
    out = subprocess.run([sys.executable, "-c", KERNEL_BITS, str(SCRIPTS)], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    child = json.loads(out.stdout)
    if child["kernel"] == "unknown":
        pytest.skip("NumPy's BLAS has no scipy_openblas_get_corename64_ to name its kernel")
    here = digest.blas_kernel()
    if child["kernel"] != SECOND_KERNEL or here == SECOND_KERNEL:
        pytest.skip(f"OPENBLAS_CORETYPE={SECOND_KERNEL} did not switch the kernel: the child "
                    f"ran {child['kernel']}, this process {here}")
    assert child["failed"] == []


def replace_terminal(monkeypatch, k, make):
    """Make the terminal of instance k make(drawn), in every stack that holds
    it; every stream is still drawn in order."""
    real = commands._terminals

    def patched(config, drawn):
        stacked = real(config, drawn)
        for j, (i, _) in enumerate(drawn):
            if i == k:
                stacked = with_element(stacked, j, make(element_at(stacked, j)))
        return stacked
    monkeypatch.setattr(commands, "_terminals", patched)


@pytest.fixture
def config():
    data = preset("m4-random")
    data["instances"] = 4
    return load_config(data)


class TestContainmentInAStack:
    """One instance of a stacked sweep that fails, or whose ratio is
    undefined, gets the outcome it gets alone; the others keep their rows."""

    def test_failed_gate_is_that_instance_s_domain_error(self, config, monkeypatch):
        real = inequalities.psd_sqrt

        def skew_the_large(plain):  # breaks the Hermiticity of the scaled instance only
            large = (np.abs(np.asarray(nc.trace(plain))) > 1e3)[..., None, None]
            skew = np.zeros((4, 4), dtype=complex)
            skew[0, 3] = 1e-6
            return real(nc.AlgElement(plain.algebra, [plain.blocks[0] + np.where(large, skew, 0)]))
        monkeypatch.setattr(inequalities, "psd_sqrt", skew_the_large)
        replace_terminal(monkeypatch, 2, lambda t: 1e3 * t)
        report = assert_sweep_matches_per_instance(config)
        [rec] = [r for r in report.records if not r.passed]
        assert (rec.check, rec.instance) == ("instance_completed", 2)
        assert "DomainError: element is not Hermitian" in rec.formula
        assert {r["instance"] for r in report.tables["ratios"]} == {0, 1, 3}

    def test_undefined_ratio_skips_that_instance_s_rows(self, config, monkeypatch):
        # a constant martingale: its square sums vanish, so the dual ratio is undefined
        replace_terminal(monkeypatch, 1, lambda t: 1.5 * t.algebra.identity())
        report = assert_sweep_matches_per_instance(config)
        assert report.all_passed
        assert {r["instance"] for r in report.tables["ratios"]} == {0, 2, 3}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow, run alone
    def test_lapack_failure_is_that_instance_s_record(self, config, monkeypatch):
        # a finite terminal whose squares overflow; a NaN one stops at its gate
        replace_terminal(monkeypatch, 3, lambda t: t * 1e300)
        report = assert_sweep_matches_per_instance(config)
        [rec] = [r for r in report.records if not r.passed]
        assert (rec.check, rec.instance) == ("instance_completed", 3)
        assert "LinAlgError: SVD did not converge" in rec.formula

    def test_non_finite_terminal_is_that_instance_s_record(self, config, monkeypatch):
        replace_terminal(monkeypatch, 3, lambda t: t * math.nan)
        report = assert_sweep_matches_per_instance(config)
        [rec] = [r for r in report.records if not r.passed]
        assert (rec.check, rec.instance) == ("instance_completed", 3)
        assert "DomainError: a martingale needs a finite terminal" in rec.formula
        assert {r["instance"] for r in report.tables["ratios"]} == {0, 1, 2}


# The rows of each command's report, in report order.
ROWS = {"verify": lambda report: [],
        "ratios": lambda report: report.tables["ratios"],
        "kolmogorov": lambda report: report.certificates,
        "refine": lambda report: report.tables["refinement"]}
# Summary entries keyed by instance.
PER_INSTANCE_SUMMARY = ("integrand_bound", "segal_modulus")


def instance_records(report):
    """The records of the instances, without the sweep's own (instance -1)."""
    return [vars(r) for r in report.records if r.instance >= 0]


def raise_for_instance(monkeypatch, name, k, when):
    """Make ``commands.<name>(*args)`` raise a LinAlgError when ``when(calls, k)``,
    where ``calls`` are the argument tuples of the calls so far, this one last;
    the work before the call has then already succeeded.  Returns ``calls``."""
    real = getattr(commands, name)
    calls = []

    def patched(*args):
        calls.append(args)
        if when(calls, k):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return real(*args)
    monkeypatch.setattr(commands, name, patched)
    return calls


class TestEachInstanceWholeOrNotAtAll:
    """A sweep with a numerical error reruns halves of its stack down to the
    instance that fails alone: a failing instance keeps only its
    ``instance_completed`` record, and the report equals the command's
    per-instance runs."""

    @pytest.mark.parametrize("command, name, when", [
        # by_instance(checks, instances) makes the record table of the instances
        # listed, once, after the certificates of both sides
        ("kolmogorov", "by_instance", lambda calls, k: k in calls[-1][1]),
        # by_instance(checks, instances) makes the records of the instances listed,
        # after their decay rows, integral process and certificate
        ("refine", "by_instance", lambda calls, k: k in calls[-1][1])])
    def test_partial_work_of_a_failing_instance_is_dropped(self, config, monkeypatch,
                                                           command, name, when):
        k = 2
        calls = raise_for_instance(monkeypatch, name, k, when)
        report = commands.COMMANDS[command](config)
        if command == "kolmogorov":  # the rerun of instance k alone makes one table
            alone = [args[0] for args in calls if args[1] == [k]]
            assert len(alone) == 1
        [rec] = [r for r in report.records if r.instance == k]
        assert (rec.check, rec.passed) == ("instance_completed", False)
        assert "LinAlgError: eigenvalues did not converge" in rec.formula
        assert [r for r in report.records if not r.passed] == [rec]
        rows = ROWS[command](report)
        assert rows and k not in {row["instance"] for row in rows}
        for key in PER_INSTANCE_SUMMARY:
            assert str(k) not in report.summary.get(key, {})
        if command == "kolmogorov":
            assert report.summary["bound_slack"]["count"] == 2 * (config.instances - 1)

    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("command", list(commands.COMMANDS))
    def test_sweep_equals_its_per_instance_runs(self, config, monkeypatch, command, k):
        replace_terminal(monkeypatch, k, lambda t: t * math.nan)
        report = commands.COMMANDS[command](config)
        real = commands._instance_streams
        alone = []
        for j in range(config.instances):
            monkeypatch.setattr(commands, "_instance_streams", lambda c, j=j: [real(c)[j]])
            alone.append(commands.COMMANDS[command](config))

        records = instance_records(report)
        assert records == [r for one in alone for r in instance_records(one)]
        rows = ROWS[command](report)
        assert rows == [row for one in alone for row in ROWS[command](one)]
        for key in PER_INSTANCE_SUMMARY:
            assert report.summary.get(key, {}) == \
                {i: v for one in alone for i, v in one.summary.get(key, {}).items()}
        for items in (records, rows):
            order = [item["instance"] for item in items]
            assert order == sorted(order)
        assert [(r["check"], r["instance"]) for r in records if not r["passed"]] \
            == [("instance_completed", k)]


def test_a_failing_instance_is_found_by_halving_the_stack(monkeypatch):
    # one failing instance among 16 costs 1 + 2 log2(16) stacked runs, not 1 + 16
    data = preset("m4-random")
    data["instances"] = 16
    config = load_config(data)
    replace_terminal(monkeypatch, 5, lambda t: t * math.nan)
    real, runs = commands._identities, []

    def counted(config, drawn):
        runs.append([i for i, _ in drawn])
        return real(config, drawn)
    monkeypatch.setattr(commands, "_identities", counted)
    report = commands.cmd_verify(config)
    assert runs == [list(range(16)), list(range(8)), [0, 1, 2, 3], [4, 5, 6, 7], [4, 5],
                     [4], [5], [6, 7], list(range(8, 16))]
    assert [(r.check, r.instance) for r in report.records if not r.passed] \
        == [("instance_completed", 5)]


def pool_config(pool, name, instances=4):
    """The config of the acceptance pool's structure ``name``."""
    filt = dict(pool)[name]
    levels = [{"kind": "general", "basis": encode_basis(lv.basis)}
              if lv.kind == "general" else
              {"kind": lv.kind, "groups": [[list(g) for g in block] for block in lv.groups]}
              if lv.groups else {"kind": lv.kind}
              for lv in filt.levels]
    return load_config({
        "algebra": {"block_dims": list(filt.algebra.block_dims),
                    "block_weights": list(filt.algebra.block_weights)},
        "times": list(filt.grid.times), "levels": levels, "instances": instances})


@pytest.mark.parametrize("structure", ["m4-general-4lv", "m2m3-6lv"])
@pytest.mark.parametrize("command", ["verify", "refine"])
def test_general_levels_sweep_equals_its_per_instance_runs(pool, monkeypatch,
                                                           command, structure):
    # the identity structures whose chains hold general levels, clean and with
    # one failing instance
    config = pool_config(pool, structure)
    assert "general" in {lv.kind for lv in config.filtration.levels}
    report = commands.COMMANDS[command](config)
    real = commands._instance_streams
    alone = []
    for j in range(config.instances):
        with monkeypatch.context() as patch:
            patch.setattr(commands, "_instance_streams", lambda c, j=j: [real(c)[j]])
            alone.append(commands.COMMANDS[command](config))
    assert report.all_passed
    assert instance_records(report) == [r for one in alone for r in instance_records(one)]
    assert ROWS[command](report) == [row for one in alone for row in ROWS[command](one)]
    for key in PER_INSTANCE_SUMMARY:
        assert report.summary.get(key, {}) == \
            {i: v for one in alone for i, v in one.summary.get(key, {}).items()}
    TestEachInstanceWholeOrNotAtAll().test_sweep_equals_its_per_instance_runs(
        config, monkeypatch, command, 1)


def with_element(stacked, k, element):
    """The stack with its element k replaced by ``element``."""
    return nc.AlgElement(stacked.algebra, [
        np.where((np.arange(len(b)) == k)[:, None, None], m, b)
        for b, m in zip(stacked.blocks, element.blocks)])


class TestPerElementGates:
    """The adaptedness, A(0) = 0 and selfadjointness gates pass a stack whose
    elements all pass them, and raise for a stack in which one element fails."""

    K = 2  # the failing element

    @pytest.fixture
    def x(self, config):
        return nc.martingale_from_terminal(config.filtration, nc.stack(terminals(config)))

    def test_adaptedness(self, config, x):
        nc.AdaptedProcess(config.filtration, x.values)
        term = terminals(config)[self.K]
        gap = nc.lp_norm(config.filtration.levels[1].expect(term) - term, 2)
        values = [x.values[0], with_element(x.values[1], self.K, term), *x.values[2:]]
        with pytest.raises(nc.StructureError) as err:
            nc.AdaptedProcess(config.filtration, values)
        assert f"value 1 is not adapted (residual {gap:.2e}" in str(err.value)

    def test_initial_zero_of_the_naturality_pairing(self, config, x):
        a = nc.doob_meyer_decompose(x).increasing_part
        grid, zero = nc.full_partition(x), 0.0 * x.values[0]

        def starting_at(initial):
            return nc.AdaptedProcess(x.filtration, [initial, *a.values[1:]], validate=False)
        lhs, rhs = nc.naturality_pairing(starting_at(zero), x.values[-1], grid)
        assert lhs.shape == rhs.shape == (4,)
        shifted = with_element(zero, self.K, 1e-3 * x.filtration.algebra.identity())
        with pytest.raises(nc.DomainError, match=r"requires A\(0\) = 0"):
            nc.naturality_pairing(starting_at(shifted), x.values[-1], grid)

    def test_selfadjointness_of_the_uniqueness_residual(self, config, x):
        herm = 0.5 * (x + x.adjoint())
        assert nc.uniqueness_residual(herm).shape == (4,)
        last = nc.AlgElement(x.filtration.algebra, [b[self.K] for b in x.values[-1].blocks])
        values = [*herm.values[:-1], with_element(herm.values[-1], self.K, last)]
        with pytest.raises(nc.DomainError) as err:
            nc.uniqueness_residual(nc.AdaptedProcess(x.filtration, values, validate=False))
        assert f"not selfadjoint (defect {nc.lp_norm(last - last.adjoint(), 2):.2e})" \
            in str(err.value)


def excepts_catching(name):
    """(module, line) of every ``except`` clause in the package that names ``name``."""
    package = Path(nc.__file__).parent
    return [(path.name, node.lineno) for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node.type))]


def test_one_containment_path():
    # every command contains numerical errors through the one runner
    assert len(excepts_catching("NUMERICAL_ERRORS")) == 1, excepts_catching("NUMERICAL_ERRORS")
    tree = ast.parse(Path(commands.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "contextlib" not in imported
