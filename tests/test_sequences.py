import json

import numpy as np
import pytest

from nvsense.constants import GAMMA_E, TWO_PI
from nvsense.errors import NumericalError
from nvsense.sequences import (
    CoherenceCurve,
    DDSequence,
    coherence_from_spectrum,
    exact_filter,
    filter_delta_comb,
    fit_stretched_exponential,
    t2_scaling,
)


def lorentzian(s_max, gamma_w):
    return lambda w: s_max * gamma_w**2 / (gamma_w**2 + w**2)


class TestDDSequence:
    def test_block_multiples_enforced(self):
        with pytest.raises(ValueError):
            DDSequence("XY8", 12, 1e-3)
        with pytest.raises(ValueError):
            DDSequence("XY16", 8, 1e-3)
        DDSequence("XY16", 512, 1e-3)

    def test_passband_center(self):
        # N = 16, T = 16 us -> omega0 / 2pi = 500 kHz
        seq = DDSequence("XY16", 16, 16e-6)
        assert seq.omega0 / TWO_PI == pytest.approx(500e3)
        assert seq.tau == pytest.approx(1e-6)

    def test_xy8_phase_pattern(self):
        seq = DDSequence("XY8", 8, 1e-3)
        np.testing.assert_allclose(
            np.rad2deg(seq.pulse_phases()), [0, 90, 0, 90, 90, 0, 90, 0]
        )

    def test_xy16_second_block_phase_inverted(self):
        ph = np.rad2deg(DDSequence("XY16", 16, 1e-3).pulse_phases())
        np.testing.assert_allclose(ph[8:] - ph[:8], 180.0)


class TestFilterComb:
    def test_weight_ratio(self):
        ff = filter_delta_comb(DDSequence("CPMG", 4, 1e-3), k_max=2)
        assert ff.weights[1] / ff.weights[0] == pytest.approx(1 / 9)

    def test_basel_sum(self):
        # sum over odd harmonics of (8/pi^2) / (2k+1)^2 -> 1
        seq = DDSequence("CPMG", 4, 1e-3)
        ff = filter_delta_comb(seq, k_max=10_000)
        total = np.sum(ff.weights) * (8 / np.pi**2) / (
            2 * np.pi * seq.total_time * 4 / np.pi**2
        )
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_comb_matches_exact_integral_flat_spectrum(self):
        # integral of the comb against a flat spectrum vs quadrature of the
        # exact filter: agree within 5% for N >= 16
        seq = DDSequence("XY16", 16, 160e-6)
        c_comb = coherence_from_spectrum(
            lambda w: 1e-18, seq, method="comb", k_max=300
        )
        c_exact = coherence_from_spectrum(
            lambda w: 1e-18, seq, method="exact", k_max=300
        )
        assert np.log(c_comb) == pytest.approx(np.log(c_exact), rel=0.05)


class TestExactFilter:
    def test_ramsey_maximal_at_dc(self):
        seq = DDSequence("RAMSEY", 0, 1e-3)
        w = np.linspace(0, 4 * np.pi / seq.total_time, 200)
        f = exact_filter(seq, w)
        assert np.argmax(f) == 0
        assert f[0] == pytest.approx(seq.total_time**2, rel=1e-9)

    def test_cpmg_peak_at_passband(self):
        seq = DDSequence("CPMG", 16, 16e-6)
        w = np.linspace(1e3, 4 * seq.omega0, 4001)
        f = exact_filter(seq, w)
        w_peak = w[np.argmax(f)]
        assert w_peak == pytest.approx(seq.omega0, rel=0.01)

    def test_dc_blocked_for_even_n(self):
        seq = DDSequence("CPMG", 8, 1e-3)
        assert exact_filter(seq, 0.0) == pytest.approx(0.0, abs=1e-20)

    def test_matches_ou_monte_carlo(self):
        # oracle: Ornstein-Uhlenbeck field trajectories + phase accumulation
        rng = np.random.default_rng(1234)
        seq = DDSequence("CPMG", 16, 80e-6)
        tau_c = 10e-6
        sigma_b = 30e-9  # T
        n_traj = 4000
        n_steps = 4000
        dt = seq.total_time / n_steps
        t_grid = (np.arange(n_steps) + 0.5) * dt
        # toggling sign on the grid
        signs = (-1.0) ** np.searchsorted(seq.pulse_times(), t_grid)
        alpha = np.exp(-dt / tau_c)
        b = rng.normal(0, sigma_b, size=n_traj)
        phi = np.zeros(n_traj)
        for k in range(n_steps):
            phi += GAMMA_E * signs[k] * b * dt
            b = alpha * b + np.sqrt(1 - alpha**2) * rng.normal(
                0, sigma_b, size=n_traj
            )
        c_mc = float(np.exp(-np.var(phi) / 2))

        spectrum = lambda w: 2 * sigma_b**2 * tau_c / (1 + (w * tau_c) ** 2)
        c_int = coherence_from_spectrum(spectrum, seq, method="exact", k_max=60)
        assert c_int == pytest.approx(c_mc, rel=0.03)


class TestCoherenceFromSpectrum:
    def test_zero_spectrum(self):
        seq = DDSequence("XY8", 8, 1e-3)
        assert coherence_from_spectrum(lambda w: 0.0, seq) == 1.0

    def test_log_linearity_in_spectrum(self):
        seq = DDSequence("XY16", 32, 1e-3)
        s = lorentzian(1e-18, TWO_PI * 50e3)
        c1 = coherence_from_spectrum(s, seq)
        c2 = coherence_from_spectrum(lambda w: 2 * s(w), seq)
        assert np.log(c2) == pytest.approx(2 * np.log(c1), rel=1e-9)

    def test_comb_closed_form_oracle(self):
        # closed-form comb sum computed independently of the implementation
        seq = DDSequence("XY16", 64, 0.5e-3)
        s = lorentzian(2e-18, TWO_PI * 80e3)
        k = np.arange(0, 201)
        harm = (2 * k + 1) * seq.omega0
        dphi2 = (
            GAMMA_E**2
            * seq.total_time
            * (8 / np.pi**2)
            * np.sum(s(harm) / (2 * k + 1) ** 2)
        )
        expected = np.exp(-dphi2 / 2)
        got = coherence_from_spectrum(s, seq, method="comb", k_max=200)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_spectrum(self):
        seq = DDSequence("XY8", 16, 1e-3)
        s1 = lorentzian(1e-18, TWO_PI * 100e3)
        s2 = lambda w: s1(w) + 5e-19
        assert coherence_from_spectrum(s2, seq) < coherence_from_spectrum(s1, seq)

    def test_bounds(self):
        seq = DDSequence("CPMG", 4, 1e-3)
        c = coherence_from_spectrum(lorentzian(3e-18, TWO_PI * 1e5), seq)
        assert 0.0 < c <= 1.0


class TestStretchedExponential:
    def _synthetic(self, t2, p, noise, rng, n=30, a=1.0, tmax_factor=2.0):
        t = np.linspace(t2 / 20, tmax_factor * t2, n)
        c = a * np.exp(-((t / t2) ** p))
        c = np.clip(c + rng.normal(0, noise, size=n), -0.05, 1.05)
        return CoherenceCurve(t, c, np.full(n, max(noise, 1e-3)))

    def test_exponential_self_consistency(self):
        rng = np.random.default_rng(0)
        curve = self._synthetic(2e-3, 1.0, 1e-4, rng)
        t2, p, a, _ = fit_stretched_exponential(curve)
        assert t2 == pytest.approx(2e-3, rel=0.01)
        assert p == pytest.approx(1.0, abs=0.05)

    def test_gaussian_decay_with_noise(self):
        rng = np.random.default_rng(5)
        curve = self._synthetic(1e-3, 2.0, 0.05, rng, n=100)
        t2, p, _, _ = fit_stretched_exponential(curve)
        assert p == pytest.approx(2.0, abs=0.15)

    def test_xy16_512_headline_extension(self):
        # synthetic decays mimicking the reported T2 extension from a
        # 146 us echo-like baseline to 2.0 ms under XY16-512
        rng = np.random.default_rng(11)
        long = self._synthetic(2.0e-3, 1.5, 0.01, rng, n=25)
        short = self._synthetic(146e-6, 1.2, 0.01, rng, n=25)
        t2_long, _, _, _ = fit_stretched_exponential(long)
        t2_short, _, _, _ = fit_stretched_exponential(short)
        assert t2_long == pytest.approx(2.0e-3, rel=0.1)
        assert t2_short == pytest.approx(146e-6, rel=0.1)
        assert t2_long / t2_short > 10

    def test_too_few_points(self):
        curve = CoherenceCurve([1e-4, 2e-4, 3e-4], [0.9, 0.8, 0.7], [0.01] * 3)
        with pytest.raises(NumericalError, match="at least 4 points"):
            fit_stretched_exponential(curve)


class TestT2Scaling:
    def test_t2_increases_with_n_lorentzian_bath(self):
        # forward model: higher N pushes the passband above the Lorentzian
        # knee, so T2 grows with pulse number
        s = lorentzian(5e-18, TWO_PI * 30e3)
        out = []
        for n in (16, 128, 512):
            times = np.linspace(50e-6, 8e-3, 40)
            cs = [
                coherence_from_spectrum(s, DDSequence("XY16", n, t))
                for t in times
            ]
            out.append(
                CoherenceCurve(times, cs, np.full(len(times), 1e-3), "XY16", n)
            )
        fits = t2_scaling(out)
        t2s = [t2 for _, t2, _ in fits]
        assert t2s[0] < t2s[1] < t2s[2]

    def test_single_curve(self):
        t = np.linspace(1e-4, 3e-3, 20)
        c = np.exp(-t / 1e-3)
        curve = CoherenceCurve(t, c, np.full(20, 1e-3), "XY8", 8)
        (pair,) = t2_scaling([curve])
        assert pair[0] == 8
        assert pair[1] == pytest.approx(1e-3, rel=0.02)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            t2_scaling([])


class TestCoherenceCurveIO:
    def test_roundtrip(self):
        curve = CoherenceCurve(
            [1e-4, 2e-4], [0.9, 0.5], [0.01, 0.02], family="XY16", n_pulses=512
        )
        back = CoherenceCurve.from_csv(curve.to_csv(), curve.sidecar())
        np.testing.assert_array_equal(back.times, curve.times)
        np.testing.assert_array_equal(back.coherence, curve.coherence)
        assert back.family == "XY16"
        assert back.n_pulses == 512
        assert json.loads(curve.sidecar())["N"] == 512

    def test_header_mandatory(self):
        with pytest.raises(ValueError, match="line 1: expected the header"):
            CoherenceCurve.from_csv("1e-4,0.9,0.01\n")

    def test_validation(self):
        with pytest.raises(ValueError):
            CoherenceCurve([2e-4, 1e-4], [0.9, 0.5], [0.01, 0.01])
        with pytest.raises(ValueError):
            CoherenceCurve([1e-4, 2e-4], [0.9, 1.2], [0.01, 0.01])
