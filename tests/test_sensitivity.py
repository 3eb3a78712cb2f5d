import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvsense.constants import GAMMA_E
from nvsense.errors import NumericalError
from nvsense.sensitivity import (
    MagnetometerRecord,
    SensitivityBudget,
    db_below_quantum_limit,
    erl_compute,
    erl_table_check,
    eta_from_budget,
    fit_fringe,
    load_reference_magnetometers,
    magnetometer_records_from_csv,
    sensitivity_from_timeseries,
)
from nvsense.protocol import nv3_config, run_experiment
from nvsense.tables import write_table
from oracles import demodulate, eta_exact, eta_from_outcomes

NV3_BUDGET = SensitivityBudget(
    t_c=1.8e-3,
    c=math.exp(-1.8 / 2.0),
    f_i=0.92,
    f_r=0.84,
    t_ir=3.336e-3 - 1.8e-3,
)


class TestEtaFromBudget:
    def test_ideal_coherence_limited(self):
        b = SensitivityBudget(t_c=1.8e-3, c=1.0, f_i=1.0, f_r=1.0, t_ir=0.0)
        assert eta_from_budget(b) == pytest.approx(
            1.0 / (GAMMA_E * math.sqrt(1.8e-3)), rel=1e-12
        )
        assert eta_from_budget(b) == pytest.approx(0.134e-9, rel=0.01)

    def test_nv3_reported_value(self):
        assert eta_from_budget(NV3_BUDGET) == pytest.approx(0.59e-9, rel=0.10)

    def test_halving_readout_fidelity_doubles_eta(self):
        b2 = SensitivityBudget(
            t_c=1.8e-3, c=0.5, f_i=0.9, f_r=0.42, t_ir=1e-3
        )
        b1 = SensitivityBudget(
            t_c=1.8e-3, c=0.5, f_i=0.9, f_r=0.84, t_ir=1e-3
        )
        assert eta_from_budget(b2) == pytest.approx(
            2 * eta_from_budget(b1), rel=1e-12
        )

    @given(
        f=st.floats(0.2, 0.99),
        df=st.floats(0.005, 0.2),
        which=st.sampled_from(["c", "f_i", "f_r"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_eta_decreases_with_any_fidelity(self, f, df, which):
        lo = {"t_c": 1e-3, "c": 0.5, "f_i": 0.8, "f_r": 0.8, "t_ir": 1e-3}
        hi = dict(lo)
        lo[which] = f
        hi[which] = min(f + df, 1.0)
        assert eta_from_budget(SensitivityBudget(**hi)) <= eta_from_budget(
            SensitivityBudget(**lo)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SensitivityBudget(t_c=0.0, c=0.5, f_i=0.9, f_r=0.9, t_ir=0.0)
        with pytest.raises(ValueError):
            SensitivityBudget(t_c=1e-3, c=1.2, f_i=0.9, f_r=0.9, t_ir=0.0)

    def test_json_round_trip(self):
        d = NV3_BUDGET.as_dict()
        back = SensitivityBudget(
            t_c=d["t_c_s"],
            c=d["c"],
            f_i=d["f_i"],
            f_r=d["f_r"],
            t_ir=d["t_ir_s"],
            gamma_e=d["gamma_e_rad_s_t"],
        )
        assert back == NV3_BUDGET
        assert d["eta_t_per_sqrt_hz"] == eta_from_budget(NV3_BUDGET)


class FringeData:
    B_V = 112e-9
    T = 1.8e-3

    @classmethod
    def make(cls, a=30.0, c=100.0, phi=0.4, noise=True, seed=0, span=0.5):
        v = np.linspace(0.0, span, 80)
        k = GAMMA_E * cls.T * cls.B_V
        mean = a * np.sin(k * v + phi) + c
        if noise:
            rng = np.random.default_rng(seed)
            counts = rng.poisson(mean).astype(float)
        else:
            counts = mean
        return v, counts


class TestFitFringe:
    def test_recovers_field_per_volt_under_poisson_noise(self):
        v, counts = FringeData.make()
        fit = fit_fringe(v, counts, FringeData.T)
        assert fit.b_v == pytest.approx(112e-9, rel=0.03)

    def test_zero_contrast_degenerate(self):
        v = np.linspace(0, 0.5, 40)
        with pytest.raises(NumericalError, match="zero contrast"):
            fit_fringe(v, np.full_like(v, 100.0), FringeData.T)

    def test_under_one_period_ambiguous(self):
        v, counts = FringeData.make(noise=False, span=0.12)
        with pytest.raises(NumericalError, match="less than one fringe period"):
            fit_fringe(v, counts, FringeData.T)

    def test_phase_shift_leaves_b_v(self):
        v, c1 = FringeData.make(noise=False, phi=0.3)
        _, c2 = FringeData.make(noise=False, phi=1.4)
        f1 = fit_fringe(v, c1, FringeData.T)
        f2 = fit_fringe(v, c2, FringeData.T)
        assert f2.b_v == pytest.approx(f1.b_v, rel=1e-6)
        assert f2.phi != pytest.approx(f1.phi, abs=0.1)

    def test_count_rescaling_invariance(self):
        v, counts = FringeData.make(noise=False)
        f1 = fit_fringe(v, counts, FringeData.T)
        f2 = fit_fringe(v, 7.0 * counts, FringeData.T)
        assert f2.b_v == pytest.approx(f1.b_v, rel=1e-9)
        assert f2.a == pytest.approx(7.0 * f1.a, rel=1e-6)


def _signs(n):
    """The chop signs +1, -1, +1, ... of n shots."""
    signs = np.ones(n, dtype=np.int8)
    signs[1::2] = -1
    return signs


class TestSensitivityFromTimeseries:
    def _shots(self, base, delta, n, seed=0):
        """Poisson counts of mean base + sign * delta, and the signs: the
        outcomes have mean delta and variance base."""
        signs = _signs(n)
        rng = np.random.default_rng(seed)
        return rng.poisson(base + delta * signs), signs

    def test_white_noise_eta_flat(self):
        counts, signs = self._shots(25.0, 10.0, 20000)
        times, eta, asym = sensitivity_from_timeseries(counts, signs, 1e-9, 1e-3)
        tail = eta[times > times[-1] / 10]
        assert np.max(tail) / np.min(tail) < 1.2
        assert asym == pytest.approx(np.mean(tail), rel=0.2)

    def test_doubled_amplitude_same_eta(self):
        signs = _signs(5000)
        noise = np.rint(np.random.default_rng(0).normal(0.0, 5.0, 5000))
        counts1 = (100 + 10 * signs + noise).astype(int)
        counts2 = (100 + 20 * signs + noise).astype(int)
        _, _, a1 = sensitivity_from_timeseries(counts1, signs, 1e-9, 1e-3)
        _, _, a2 = sensitivity_from_timeseries(counts2, signs, 2e-9, 1e-3)
        assert a2 == pytest.approx(a1, rel=0.02)

    def test_analytic_value(self):
        # eta = amplitude * sigma * sqrt(shot_duration) / mu for iid shots,
        # here sigma = sqrt(100) and mu = 50
        counts, signs = self._shots(100.0, 50.0, 40000, seed=5)
        _, _, asym = sensitivity_from_timeseries(counts, signs, 1e-9, 1.44e-3)
        expected = 1e-9 * 0.2 * math.sqrt(1.44e-3)
        assert asym == pytest.approx(expected, rel=0.05)

    def test_zero_variance_degenerate(self):
        with pytest.raises(NumericalError, match="zero-variance"):
            sensitivity_from_timeseries(np.ones(500, int), _signs(500), 1e-9, 1e-3)

    def test_zero_variance_prefix_degenerate(self):
        # the first window's outcomes are constant although the whole series'
        # are not: its counts are the run mean 20 plus 3 times the sign; this
        # used to report eta = 0, a perfect sensitivity
        signs = _signs(5150)
        noise = np.rint(np.random.default_rng(0).normal(0.0, 5.0, 2500))
        counts = 20 + 3 * signs + np.concatenate([np.zeros(150), noise, -noise])
        counts = counts.astype(int)
        assert counts.sum() == 20 * len(counts)
        with pytest.raises(NumericalError, match="zero-variance"):
            sensitivity_from_timeseries(counts, signs, 1e-9, 1e-3)

    def test_too_few_shots(self):
        with pytest.raises(ValueError):
            sensitivity_from_timeseries(np.ones(50, int), _signs(50), 1e-9, 1e-3)

    def test_unequal_lengths_rejected(self):
        counts, signs = self._shots(25.0, 10.0, 1000)
        with pytest.raises(ValueError, match="equally long"):
            sensitivity_from_timeseries(counts, signs[:-1], 1e-9, 1e-3)

    def test_non_integer_counts_rejected(self):
        counts, signs = self._shots(25.0, 10.0, 1000)
        with pytest.raises(ValueError, match="counts must be integers"):
            sensitivity_from_timeseries(counts.astype(float), signs, 1e-9, 1e-3)

    @pytest.mark.parametrize("bad", [0, 2, -3])
    @pytest.mark.parametrize("at", [0, 999, 70000])
    def test_sign_other_than_plus_minus_one_rejected(self, bad, at):
        # the first shot, the last one and one in a later int64 slice
        counts, signs = self._shots(25.0, 10.0, max(1000, at + 1))
        signs[at] = bad
        with pytest.raises(ValueError, match="signs must be"):
            sensitivity_from_timeseries(counts, signs, 1e-9, 1e-3)

    def test_counts_beyond_the_exact_range_rejected(self):
        counts, signs = self._shots(25.0, 10.0, 1000)
        counts[7] = 2**23
        with pytest.raises(ValueError, match="2\\*\\*23"):
            sensitivity_from_timeseries(counts, signs, 1e-9, 1e-3)


class TestSensitivityAgainstReferences:
    """The exact window sums against the float64 formulation they replaced
    and against the definition in rational arithmetic."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_float64_outcomes_at_full_length(self, seed):
        # the float64 curve's own rounding reaches 1.3e-14 (seed 2) here
        config = nv3_config()
        run = run_experiment(config, 1e-9, 1_200_000, seed=seed, workers=2)
        times, eta, asym = sensitivity_from_timeseries(
            run.photons, run.signs, 1e-9, config.shot_duration
        )
        ref_times, ref_eta, ref_asym = eta_from_outcomes(
            demodulate(run.photons, run.signs), 1e-9, config.shot_duration
        )
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_allclose(eta, ref_eta, rtol=1e-12, atol=0)
        assert asym == pytest.approx(ref_asym, rel=1e-12)

    def test_within_two_ulp_of_rational_arithmetic(self):
        config = nv3_config()
        run = run_experiment(config, 1e-9, 5000, seed=11)
        times, eta, _ = sensitivity_from_timeseries(
            run.photons, run.signs, 1e-9, config.shot_duration
        )
        ref = eta_exact(run.photons, run.signs, 1e-9, times)
        ulps = np.abs(eta - ref) / np.array([math.ulp(v) for v in ref])
        assert np.max(ulps) <= 2


class TestErlCompute:
    def test_nv3_value(self):
        assert erl_compute(0.59e-9, 31.7e-9) == pytest.approx(0.042, rel=0.02)

    def test_table_row_one(self):
        assert erl_compute(5.3e-8, 4.0e-9) == pytest.approx(0.68, rel=0.02)

    def test_zero_eta(self):
        assert erl_compute(0.0, 1e-8) == 0.0

    @given(
        eta=st.floats(1e-13, 1e-7),
        l_eff=st.floats(1e-9, 1e-3),
        s=st.floats(1.1, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_quadratic_and_cubic_scaling(self, eta, l_eff, s):
        base = erl_compute(eta, l_eff)
        assert erl_compute(s * eta, l_eff) == pytest.approx(
            s**2 * base, rel=1e-9
        )
        assert erl_compute(eta, s * l_eff) == pytest.approx(
            s**3 * base, rel=1e-9
        )

    def test_db_below_limit(self):
        assert db_below_quantum_limit(0.042) == pytest.approx(13.8, abs=0.05)
        assert db_below_quantum_limit(1.0) == 0.0


class TestErlTableCheck:
    def test_bundled_table_all_rows_within_ten_percent(self):
        report = erl_table_check(load_reference_magnetometers())
        assert len(report) == 24
        assert all(r["consistent"] for r in report)

    def test_sub_hbar_rows_report_db(self):
        report = erl_table_check(load_reference_magnetometers())
        sub = [r for r in report if r["e_r_stored_hbar"] < 1.0]
        assert len(sub) == 1
        assert sub[0]["db_below_limit"] > 0

    def test_bec_row(self):
        rec = MagnetometerRecord("BEC", 1.1e-5, 5.0e-13, "17", 1.24)
        report = erl_table_check([rec])
        assert report[0]["e_r_computed_hbar"] == pytest.approx(1.24, rel=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            erl_table_check([])


class TestMagnetometerCsv:
    def test_round_trip(self):
        records = load_reference_magnetometers()
        text = write_table(
            "kind,l_eff_m,eta_t_per_sqrt_hz,ref,e_r_hbar",
            *zip(*((r.kind, r.l_eff, r.eta, r.ref, r.e_r) for r in records)),
        )
        back = magnetometer_records_from_csv(text)
        assert back == records

    def test_missing_header(self):
        with pytest.raises(ValueError, match="line 1: expected the header"):
            magnetometer_records_from_csv("a,b\n1,2\n")

    @pytest.mark.parametrize("field", ["l_eff", "eta", "e_r"])
    @pytest.mark.parametrize("value", [0.0, -4.0e-9, math.inf, math.nan])
    def test_record_rejects_nonpositive_or_nonfinite(self, field, value):
        row = {"kind": "NV", "l_eff": 4.0e-9, "eta": 5.3e-8, "ref": "1", "e_r": 0.68}
        row[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
            MagnetometerRecord(**row)
