"""One NaN residual term makes its check's residual NaN and fails the record.

Each check family folds its terms with ``tolerances.worst``.  Where NaN data
reaches a term, the tests use it; where such data stops first at a
precondition gate or a LAPACK error, the term itself is stood in by NaN.
"""

import dataclasses
import math

import numpy as np

import pytest

import ncmart as nc
from ncmart import doob_meyer, processes
from ncmart.harness import checks
from ncmart.harness.report import VerificationReport
from conftest import nan_element, nan_on_call, nan_tolerant, single


def as_records(rows):
    """The records of one instance from a check family's rows."""
    return checks.by_instance(rows, [0]).records()


def nan_records(rows):
    """The checks whose residual is NaN; each must also have failed."""
    records = as_records(rows)
    nans = {r.check for r in records if math.isnan(r.residual)}
    assert not any(r.passed for r in records if r.check in nans)
    return nans


@pytest.fixture
def partner(m2):
    return single(m2, [[0.5, 1], [-1j, 2]])


@pytest.fixture
def with_nan_last(m2_martingale, m2):
    """The worked martingale with a NaN entry in its final value only."""
    values = m2_martingale.values[:-1] + (nan_element(m2),)
    return nc.AdaptedProcess(m2_martingale.filtration, values, validate=False)


class TestConditionalExpectationChecks:
    ALL = {"trace_duality", "trace_preservation", "tower_property", "module_property",
           "schwarz_positivity", "norm_contraction", "engine_agreement"}

    def test_nan_partner(self, m2_chain, m2_terminal, m2):
        rows = checks.conditional_expectation_checks(m2_chain, m2_terminal, nan_element(m2))
        assert nan_records(rows) == {"trace_duality", "module_property"}

    def test_nan_element(self, m2_chain, m2, partner, monkeypatch):
        nan_tolerant(monkeypatch, checks, "min_eigenvalue")
        nan_tolerant(monkeypatch, checks, "lp_norm")
        rows = checks.conditional_expectation_checks(m2_chain, nan_element(m2), partner)
        assert nan_records(rows) == self.ALL


class TestMartingaleChecks:
    FOLDS = {"martingale_residual", "null_increments", "increment_projection",
             "norm_monotonicity", "submartingale_loewner"}

    def test_nan_final_value(self, with_nan_last, monkeypatch):
        nan_tolerant(monkeypatch, checks, "lp_norm")
        nan_tolerant(monkeypatch, processes, "min_eigenvalue")
        rows = checks.martingale_checks(with_nan_last)
        assert nan_records(rows) == self.FOLDS | {"increment_energy"}


class TestIntegralChecks:
    def test_nan_refinement_term(self, m2_martingale, monkeypatch):
        # the second lp_norm call is the right-sum term of refinement_invariance
        nan_on_call(monkeypatch, checks, "lp_norm", 2)
        rows = checks.integral_checks(m2_martingale, m2_martingale)
        assert nan_records(rows) == {"refinement_invariance"}


class TestGapChecks:
    def test_nan_in_a_later_partition(self):
        finite = {"orthogonality": 0.0, "fourth_moment": 0.0}
        rows = checks.gap_checks(
            [finite, {"orthogonality": math.nan, "fourth_moment": math.nan}, finite])
        assert nan_records(rows) == {"gap_orthogonality", "gap_fourth_moment"}


class TestCertificateChecks:
    @pytest.fixture
    def cert(self, m2_martingale):
        return nc.kolmogorov_projection(m2_martingale, 1.5, "left")

    def test_nan_terms(self, cert):
        bad = dataclasses.replace(cert, trace_defect=math.nan,
                                  sup_norms=(cert.sup_norms[0], math.nan))
        assert nan_records(checks.certificate_checks(bad)) == {
            "kolmogorov_trace_bound", "kolmogorov_sup_norm"}

    def test_nan_chain_eigenvalue(self, cert, monkeypatch):
        nan_on_call(monkeypatch, checks, "min_eigenvalue", len(cert.meets) - 1)
        rows, chain_min = checks.kolmogorov_checks(cert)
        assert nan_records(rows) == {"kolmogorov_chain_monotone"}
        assert math.isnan(chain_min)

    def test_monotone_chain_reports_positive_zero(self, cert):
        rows, chain_min = checks.kolmogorov_checks(cert)
        assert all(r.passed for r in as_records(rows))
        assert chain_min == 0.0 and math.copysign(1.0, chain_min) == 1.0


class TestDoobMeyerChecks:
    def test_nan_partner(self, m2_martingale, m2):
        rows = checks.doob_meyer_checks(m2_martingale, m2_martingale, nan_element(m2))
        assert nan_records(rows) == {"naturality_pairing", "pairing_gap_bound"}

    # NaN data in X stops at the martingale and adaptedness gates of the
    # decomposition, so the last term of each fold is stood in by NaN.  The
    # doob_meyer lp_norm calls run: predictable reconstruction 1-3, initial 4,
    # predictability 5-6, bracket reconstruction 7-9.
    @pytest.mark.parametrize("owner, name, call, check", [
        (checks, "lp_norm", 3, "compensator_increment"),
        (doob_meyer, "lp_norm", 3, "dm_reconstruction_predictable"),
        (doob_meyer, "lp_norm", 6, "dm_predictable"),
        (doob_meyer, "lp_norm", 9, "dm_reconstruction_bracket"),
        (doob_meyer, "min_eigenvalue", 2, "dm_increasing_predictable"),
        (doob_meyer, "min_eigenvalue", 4, "dm_increasing_bracket"),
    ])
    def test_one_nan_term(self, m2_martingale, partner, monkeypatch, owner, name, call,
                          check):
        nan_on_call(monkeypatch, owner, name, call)
        rows = checks.doob_meyer_checks(m2_martingale, m2_martingale, partner)
        assert nan_records(rows) == {check}


class TestSummary:
    def test_nan_residual_is_the_max_residual(self):
        report = VerificationReport("verify", {})
        report.record_tables = [
            checks.by_instance([("a", "", np.array([1e-12, math.nan, 1e-11]), 1e-10)], [0, 1, 2]),
            checks.by_instance([("b", "", 1e-12, 1e-10)], [0])]
        report.summarize()
        a, b = report.summary["checks"]["a"], report.summary["checks"]["b"]
        assert math.isnan(a["max_residual"])
        assert (a["count"], a["failures"]) == (3, 1)
        assert (b["max_residual"], b["failures"]) == (1e-12, 0)
        assert report.summary["all_passed"] is False
        assert '"max_residual":"nan"' in report.to_json()

