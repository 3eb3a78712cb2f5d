import json
import math

import numpy as np
import pytest
from oracles import jacobi_spectrum

from nvsense.constants import GAMMA_E, TWO_PI
from nvsense.errors import NumericalError
from nvsense.noisespec import (
    GRID_HARMONICS,
    NoiseSpectrum,
    _zeroth,
    db_below_erl,
    deduct_t1,
    erl_noise_line,
    fit_lorentzian,
    reconstruct_spectrum,
    spectrum_iterate,
    spectrum_zeroth,
)
from nvsense.sequences import CoherenceCurve, DDSequence, coherence_from_spectrum
from nvsense.synth import make_coherence_family, nv3_floor_spectrum


def lorentzian(s_max, width):
    return lambda w: s_max * width**2 / (width**2 + np.asarray(w, float) ** 2)


class TestSpectrumZeroth:
    def test_full_coherence_gives_zero(self):
        seq = DDSequence("XY8", 8, 1e-3)
        w0, s0 = spectrum_zeroth(1.0, seq)
        assert s0 == 0.0
        assert w0 == pytest.approx(seq.omega0)

    def test_algebraic_value(self):
        seq = DDSequence("XY8", 8, 1e-3)
        _, s0 = spectrum_zeroth(math.exp(-0.5), seq)
        assert s0 == pytest.approx(1.0 / (GAMMA_E**2 * 1e-3), rel=1e-12)

    def test_nonpositive_coherence_rejected(self):
        seq = DDSequence("XY8", 8, 1e-3)
        with pytest.raises(ValueError, match="coherence must be > 0"):
            spectrum_zeroth(0.0, seq)
        with pytest.raises(ValueError, match="coherence must be > 0"):
            spectrum_zeroth(-0.2, seq)

    def test_flat_spectrum_naive_estimate_overestimates(self):
        # single-harmonic reading pi^2/8 * S0 overestimates a flat truth by
        # exactly the comb factor pi^2/8 (S0 itself equals the flat truth)
        s_flat = 4e-19
        seq = DDSequence("XY16", 64, 1e-3)
        c = coherence_from_spectrum(lambda w: s_flat, seq, k_max=20000)
        _, s0 = spectrum_zeroth(c, seq)
        assert s0 == pytest.approx(s_flat, rel=1e-4)
        assert np.pi**2 / 8 * s0 == pytest.approx(np.pi**2 / 8 * s_flat, rel=1e-4)


class TestSpectrumIterate:
    def _forward_points(self, spectrum, seqs):
        out = []
        for seq in seqs:
            c = coherence_from_spectrum(spectrum, seq, k_max=20000)
            out.append(spectrum_zeroth(c, seq))
        w0, s0 = zip(*out)
        return np.array(w0), np.array(s0)

    def test_flat_fixed_point(self):
        # a flat truth is the fixed point: sweeps from pi^2/8 * S0 settle on it
        s_flat = 2e-19
        seqs = [DDSequence("XY16", 16, 16 / (2 * f)) for f in
                np.linspace(20e3, 500e3, 12)]
        w0, s0 = self._forward_points(lambda w: s_flat, seqs)
        spec, info = spectrum_iterate(w0, s0, n=6)
        np.testing.assert_allclose(spec.s, s_flat, rtol=1e-3)
        assert info["iterations"] == 6

    def test_single_iteration_recovers_lorentzian(self):
        # "one iteration is enough" on Lorentzian test spectra
        truth = lorentzian(1e-18, TWO_PI * 100e3)
        freqs = np.geomspace(30e3, 1.5e6, 16)
        seqs = [DDSequence("XY16", 64, 64 / (2 * f)) for f in freqs]
        w0, s0 = self._forward_points(truth, seqs)
        spec, _ = spectrum_iterate(w0, s0, n=1)
        np.testing.assert_allclose(spec.s, truth(spec.omega), rtol=0.05)

    def test_contraction_on_lorentzian(self):
        # Jacobi passes contract onto the sweep's values, which a second
        # sweep leaves as they are
        truth = lorentzian(1e-18, TWO_PI * 100e3)
        freqs = np.geomspace(30e3, 1.5e6, 12)
        seqs = [DDSequence("XY16", 64, 64 / (2 * f)) for f in freqs]
        w0, s0 = self._forward_points(truth, seqs)
        s1, _ = spectrum_iterate(w0, s0, n=1)
        s2, _ = spectrum_iterate(w0, s0, n=2)
        np.testing.assert_array_equal(s2.s, s1.s)
        gaps = [np.max(np.abs(jacobi_spectrum(w0, s0, k).s / s1.s - 1)) for k in (1, 2, 3)]
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_wide_grid_takes_far_harmonics_from_the_model(self):
        # six decades of bands: the low bands have ~1e6 harmonics on the grid,
        # far more than GRID_HARMONICS; the fitted model supplies those past it
        w0 = np.geomspace(TWO_PI * 10, TWO_PI * 10e6, 25)
        assert w0[-1] / w0[0] > 100 * (2 * GRID_HARMONICS + 1)
        s0 = closed_form_s0(w0, 8e-19, TWO_PI * 120e3, 2e-20)
        spec, _ = spectrum_iterate(w0, s0, n=6)
        np.testing.assert_allclose(spec.s, lorentzian(8e-19, TWO_PI * 120e3)(w0) + 2e-20, rtol=0.01)

    def test_flat_stretch_needs_more_than_one_pass(self):
        # below the 120 kHz corner a band's harmonics sit on a flat stretch:
        # one Jacobi pass subtracts them at pi^2/8 times their value and
        # reads (pi^2/8 - 1)^2 ~ 5.4% low; the sweep leaves the log-log
        # interpolation's error alone
        w0 = np.geomspace(TWO_PI * 10, TWO_PI * 10e6, 25)
        truth = lorentzian(8e-19, TWO_PI * 120e3)(w0) + 2e-20
        s0 = closed_form_s0(w0, 8e-19, TWO_PI * 120e3, 2e-20)
        one = jacobi_spectrum(w0, s0, 1)
        assert np.min(one.s / truth - 1) == pytest.approx(-((np.pi**2 / 8 - 1) ** 2), rel=0.01)
        spec, info = spectrum_iterate(w0, s0)
        assert info["iterations"] == 1
        np.testing.assert_allclose(spec.s, truth, rtol=2e-3)

    @pytest.mark.parametrize(
        "w0",
        [
            np.geomspace(TWO_PI * 10, TWO_PI * 10e6, 25),
            np.geomspace(TWO_PI * 10e3, TWO_PI * 10e6, 40),
            TWO_PI * 1e3 * 4.0 ** np.arange(8),
        ],
        ids=["six-decades", "forty-bands", "ratio-4"],
    )
    def test_sweep_is_the_fixed_point_of_jacobi_passes(self, w0):
        # one sweep gives what 40 Jacobi passes converge to; on the ratio-4
        # grid no band has a band in (omega_0, 3 omega_0], so below the top
        # band each reads its own value and repeats until it settles
        s0 = closed_form_s0(w0, 8e-19, TWO_PI * 120e3, 2e-20)
        spec, info = spectrum_iterate(w0, s0)
        assert info["iterations"] == 1
        assert np.max(np.abs(spec.s / jacobi_spectrum(w0, s0, 40).s - 1)) <= 1e-15
        # four passes, which once sufficed on the `gen noise` grid, fall short
        assert np.max(np.abs(spec.s / jacobi_spectrum(w0, s0, 4).s - 1)) > 1e-6

    def test_narrow_grid_flagged(self):
        # two bands cannot resolve a Lorentzian: the fit is the floor alone
        w0 = np.array([1e5, 1.2e5])
        s0 = np.array([1e-18, 9e-19])
        spec, info = spectrum_iterate(w0, s0, n=1)
        fit = info["fit"]
        assert fit.degenerate_width
        assert (fit.s_max, fit.width, fit.s_max_sigma, fit.width_sigma) == (0.0, 0.0, None, None)
        assert 9e-19 < fit.floor < 1e-18
        # neither band has a harmonic on the grid: all of the comb past S0
        # comes from the flat model, pi^2/8 S0 - (pi^2/8 - 1) F
        np.testing.assert_allclose(spec.s, np.pi**2 / 8 * s0 - (np.pi**2 / 8 - 1) * fit.floor)

    def test_band_without_passband_or_pass_rejected(self):
        s0 = np.array([1e-18, 9e-19])
        with pytest.raises(ValueError, match="passband centers must be > 0"):
            spectrum_iterate(np.array([0.0, 1e5]), s0)
        with pytest.raises(ValueError, match="n must be >= 1"):
            spectrum_iterate(np.array([1e5, 2e5]), s0, n=0)


class TestRoundTrip:
    def test_master_round_trip_property(self):
        # spectrum -> coherence under a family of sequences -> inversion
        # recovers the input within 10% on the covered band
        truth = lorentzian(8e-19, TWO_PI * 120e3)
        points = []
        for n in (16, 64, 128, 512):
            for f0 in np.geomspace(40e3, 2e6, 10):
                seq = DDSequence("XY16", max(16, n), n / (2 * f0))
                c = coherence_from_spectrum(truth, seq, k_max=20000)
                if 0.05 < c < 0.95:
                    points.append((seq, c))
        spec, _ = reconstruct_spectrum(points, n=1)
        rel = np.abs(spec.s - truth(spec.omega)) / truth(spec.omega)
        assert np.max(rel) < 0.10

    def test_surface_noise_family_floor_and_width(self):
        # the noiseless family of `gen noise`: the fitted floor sits within
        # 0.1 dB of its 21.6 dB below the ERL line, the width within 1%, and
        # after the sweep every band within 0.05% of the model
        truth = nv3_floor_spectrum(db_below=21.6, l_eff=31.7e-9)
        points = [
            (DDSequence(curve.family, curve.n_pulses, t), c)
            for curve in make_coherence_family(truth)
            for t, c in zip(curve.times, curve.coherence)
            if 0.0 < c < 1.0
        ]
        spec, info = reconstruct_spectrum(points)
        fit = info["fit"]
        assert db_below_erl(fit.floor, 31.7e-9) == pytest.approx(21.6, abs=0.1)
        assert fit.width == pytest.approx(TWO_PI * 120e3, rel=0.01)
        assert not fit.degenerate_width
        np.testing.assert_allclose(spec.s, truth(spec.omega), rtol=5e-4)

    @pytest.mark.parametrize("noise, seeds", [(0.0, [0]), (0.005, range(20))])
    def test_passes_reach_their_fixed_point_on_gen_noise_families(self, noise, seeds):
        # 40 Jacobi passes reach the sweep's values to 1e-15 on the families
        # `gen noise` writes, with the CLI's filter
        truth = nv3_floor_spectrum(db_below=21.6, l_eff=31.7e-9)
        for seed in seeds:
            points = [
                (DDSequence(curve.family, curve.n_pulses, t), c)
                for curve in make_coherence_family(truth, noise=noise, seed=seed)
                for t, c in zip(curve.times, curve.coherence)
                if 0.0 < c < 1.0
            ]
            spec, info = reconstruct_spectrum(points)
            assert info["iterations"] == 1
            w0, s0 = np.array([spectrum_zeroth(c, seq) for seq, c in points]).T
            assert np.max(np.abs(spec.s / jacobi_spectrum(w0, s0, 40).s - 1)) <= 1e-15


class TestDeductT1:
    def _curve(self):
        t = np.linspace(1e-4, 3e-3, 12)
        return t

    def test_infinite_t1_identity(self):
        t = self._curve()
        c = np.exp(-t / 1e-3)
        curve = CoherenceCurve(t, c, np.full_like(t, 0.01))
        out = deduct_t1(curve, np.inf)
        np.testing.assert_allclose(out.coherence, c)

    def test_pure_relaxation_flattens(self):
        t = self._curve()
        t1 = 2e-3
        curve = CoherenceCurve(t, np.exp(-t / t1), np.full_like(t, 0.01))
        out = deduct_t1(curve, t1)
        np.testing.assert_allclose(out.coherence, 1.0, rtol=1e-12)

    def test_combined_decay_recovered(self):
        t = self._curve()
        t1, t2 = 5e-3, 1.2e-3
        pure = np.exp(-((t / t2) ** 1.5))
        curve = CoherenceCurve(t, pure * np.exp(-t / t1), np.full_like(t, 0.01))
        out = deduct_t1(curve, t1)
        np.testing.assert_allclose(out.coherence, pure, rtol=0.02)
        assert np.all(out.coherence >= curve.coherence - 1e-12)

    @pytest.mark.parametrize("t1", [np.nan, -np.inf, 0.0, 1e-7])
    def test_unusable_t1_rejected(self, t1):
        # 1e-7 s: exp(-t/T1) underflows to zero over the curve's times; the
        # rejection names t1 and raises no numpy warning on the way
        t = self._curve()
        curve = CoherenceCurve(t, np.exp(-t / 1e-3), np.full_like(t, 0.01))
        with pytest.raises(ValueError, match="t1"):
            deduct_t1(curve, t1)


def closed_form_s0(w0, s_max, width, floor):
    """pi^2/8 S0 = F pi^2/8 + A (pi^2/8 - pi tanh(pi c/2) / (4c)), c = W / omega_0,
    over pi^2/8: the odd-harmonic comb of A W^2/(W^2 + w^2) + F summed exactly."""
    c = width / np.asarray(w0, float)
    return floor + s_max * (1 - 8 / np.pi**2 * np.pi * np.tanh(np.pi * c / 2) / (4 * c))


class TestLorentzianFit:
    @pytest.mark.parametrize("c", np.geomspace(1e-2, 1e2, 9))
    def test_closed_form_matches_the_truncated_comb(self, c):
        # -ln C = gamma_e^2 T (4/pi^2) [pi^2/8 S0]; the 20,000-harmonic comb
        # misses ~1/(4 k_max) of the floor's share
        s_max, floor = 8e-19, 2e-20
        seq = DDSequence("XY16", 64, 64 / (2 * 1e6))
        width = c * seq.omega0
        c_comb = coherence_from_spectrum(
            lambda w: lorentzian(s_max, width)(w) + floor, seq, k_max=20000
        )
        closed = GAMMA_E**2 * seq.total_time * (4 / np.pi**2) * (
            np.pi**2 / 8 * closed_form_s0(seq.omega0, s_max, width, floor)
        )
        assert -math.log(c_comb) == pytest.approx(closed, rel=1e-4)
        _, s0 = spectrum_zeroth(c_comb, seq)
        assert s0 == pytest.approx(_zeroth(seq.omega0, s_max, width, floor), rel=1e-4)

    def test_noiseless_self_consistency(self):
        w0 = np.geomspace(1e4, 1e7, 40)
        fit = fit_lorentzian(w0, closed_form_s0(w0, 3e-18, TWO_PI * 150e3, 1e-20))
        assert fit.s_max == pytest.approx(3e-18, rel=1e-9)
        assert fit.width == pytest.approx(TWO_PI * 150e3, rel=1e-9)
        assert fit.floor == pytest.approx(1e-20, rel=1e-9)
        assert fit.chi2_per_dof < 1e-20
        assert not fit.degenerate_width

    def test_noisy_width_recovery(self):
        rng = np.random.default_rng(2)
        w0 = np.geomspace(1e4, 1e7, 60)
        truth = closed_form_s0(w0, 3e-18, TWO_PI * 150e3, 1e-20)
        fit = fit_lorentzian(w0, truth * (1 + rng.normal(0, 0.10, len(w0))))
        assert fit.width == pytest.approx(TWO_PI * 150e3, rel=0.15)
        # the errors come from the scatter: chi^2/dof of the relative residuals
        assert fit.chi2_per_dof == pytest.approx(0.01, rel=0.5)
        assert abs(fit.width - TWO_PI * 150e3) < 3 * fit.width_sigma

    def test_flat_input_degenerate(self):
        w0 = np.geomspace(1e4, 1e6, 20)
        fit = fit_lorentzian(w0, np.full(20, 1e-18))
        assert fit.degenerate_width
        assert fit.floor == pytest.approx(1e-18, rel=1e-12)
        assert json.loads(fit.to_json())["width_sigma_rad_s"] is None

    def test_too_few_points(self):
        # three bands leave the Lorentzian no degree of freedom: floor alone;
        # one band leaves not even the floor one
        fit = fit_lorentzian([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert fit.degenerate_width and fit.floor == pytest.approx(1.5, rel=0.2)
        with pytest.raises(NumericalError, match="floor fit"):
            fit_lorentzian([1.0], [1.0])

    def test_nonpositive_density_rejected(self):
        with pytest.raises(ValueError, match="must be > 0"):
            fit_lorentzian([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 1.0, 0.0, 1.0, 1.0])


class TestErlNoiseLine:
    def test_value_at_nv3_depth(self):
        s = erl_noise_line(31.7e-9)
        assert s == pytest.approx(3.06e-18, rel=0.01)
        assert math.sqrt(s) == pytest.approx(1.75e-9, rel=0.01)

    def test_cubic_scaling(self):
        assert erl_noise_line(2 * 31.7e-9) == pytest.approx(
            erl_noise_line(31.7e-9) / 8, rel=1e-12
        )

    def test_db_below(self):
        # plateau calibrated 21.6 dB below the line reports 21.6 dB
        line = erl_noise_line(31.7e-9)
        plateau = line / 10 ** (21.6 / 10)
        assert db_below_erl(plateau, 31.7e-9) == pytest.approx(21.6, abs=1e-9)
        # 21.6 dB corresponds to a power ratio ~144.5
        assert 10 ** (21.6 / 10) == pytest.approx(144.5, rel=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError, match="l_eff must be > 0"):
            erl_noise_line(0.0)

    @pytest.mark.parametrize("l_eff", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, l_eff):
        with pytest.raises(ValueError, match="l_eff must be > 0 and finite"):
            erl_noise_line(l_eff)


class TestNoiseSpectrumIO:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpectrum([2e5, 1e5], [1e-18, 1e-18])
        with pytest.raises(ValueError):
            NoiseSpectrum([1e5, 2e5], [-1e-18, 1e-18])

    def test_evaluate_tail_extrapolation(self):
        # log-log interpolation on the grid; past either end the end value holds
        w = np.geomspace(1e4, 1e6, 30)
        s = lorentzian(1e-18, TWO_PI * 20e3)(w)
        spec = NoiseSpectrum(w, s)
        assert spec.evaluate(4e6) == pytest.approx(s[-1], rel=1e-12)
        assert spec.evaluate(1e3) == pytest.approx(s[0], rel=1e-12)
        mid = math.sqrt(w[3] * w[4])
        assert spec.evaluate(mid) == pytest.approx(math.sqrt(s[3] * s[4]), rel=1e-12)
