import json

import numpy as np
import pytest

from nvsense.constants import GAMMA_E, TWO_PI
from nvsense.sequences import (
    CoherenceCurve,
    DDSequence,
    coherence_from_spectrum,
    filter_delta_comb,
)
from oracles import exact_coherence, exact_filter, pulse_times


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


class TestFilterComb:
    def test_weight_ratio(self):
        seq = DDSequence("CPMG", 4, 1e-3)
        harmonics, weights = filter_delta_comb(seq, k_max=2)
        np.testing.assert_allclose(harmonics, np.array([1, 3, 5]) * seq.omega0)
        assert weights[1] / weights[0] == pytest.approx(1 / 9)

    def test_basel_sum(self):
        # sum over odd harmonics of (8/pi^2) / (2k+1)^2 -> 1
        seq = DDSequence("CPMG", 4, 1e-3)
        _, weights = filter_delta_comb(seq, k_max=10_000)
        total = np.sum(weights) * (8 / np.pi**2) / (
            2 * np.pi * seq.total_time * 4 / np.pi**2
        )
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_comb_matches_exact_integral_flat_spectrum(self):
        # integral of the comb against a flat spectrum vs quadrature of the
        # exact filter: agree within 5% for N >= 16
        seq = DDSequence("XY16", 16, 160e-6)
        c_comb = coherence_from_spectrum(lambda w: 1e-18, seq, k_max=300)
        c_exact = exact_coherence(lambda w: 1e-18, seq, k_max=300)
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
        signs = (-1.0) ** np.searchsorted(pulse_times(seq), t_grid)
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
        c_int = exact_coherence(spectrum, seq, k_max=60)
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
        got = coherence_from_spectrum(s, seq, k_max=200)
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
        for bad in (np.nan, np.inf):
            for column in range(3):
                arrays = [[1e-4, 2e-4], [0.9, 0.5], [0.01, 0.01]]
                arrays[column][0] = bad
                with pytest.raises(ValueError, match="must be finite"):
                    CoherenceCurve(*arrays)


XY16 = DDSequence("XY16", 16, 1e-4)
# each input guard of the sequences module: a call it refuses and its message
GUARDS = {
    "train-no-time": (lambda: DDSequence("XY16", 16, 0.0), "total_time must be > 0"),
    "comb-negative-harmonics": (lambda: filter_delta_comb(XY16, -1), "k_max must be >= 0"),
    "spectrum-negative": (
        lambda: coherence_from_spectrum(lambda w: -np.ones_like(w), XY16),
        "spectrum must be nonnegative",
    ),
}


@pytest.mark.parametrize("case", GUARDS)
def test_guard_refuses_with_its_message(case):
    call, message = GUARDS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
