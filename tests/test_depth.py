import dataclasses
import json
import re

import numpy as np
import pytest
from scipy.integrate import quad

from nvsense import depth
from nvsense.constants import GAMMA_H, TWO_PI
from nvsense.depth import (
    RHO_GLYCERINE,
    RHO_IMMERSION_OIL,
    DepthDataset,
    ProtonBathModel,
    _overlap_k,
    b_rms_squared,
    fit_depth,
    proton_signal_coherence,
)
from nvsense.errors import NumericalError, least_squares
from nvsense.sequences import DDSequence

from nvsense.synth import DEPTH_B0 as B0_MEAS
from nvsense.synth import DEPTH_SUITE, TAU_LARMOR, make_depth_suite
from nvsense.synth import make_depth_dataset as make_dataset
from oracles import exact_filter

OMEGA_L = GAMMA_H * B0_MEAS
SUITE_TAUS = np.linspace(0.8 * TAU_LARMOR, 1.2 * TAU_LARMOR, 21)


def grid_overlap_k(n_pulses, tau, omega_l, lam):
    """The numerical overlap the closed form replaced: trapezoid over a union
    of a +-40 lam line grid and a +-40 bandwidth filter grid, omega > 0."""
    total = n_pulses * tau
    seq = DDSequence("CPMG", n_pulses, total)
    bw = 2 * np.pi / total
    w_line = omega_l + np.linspace(-40.0, 40.0, 1201) * lam
    w_filt = np.pi / tau + np.linspace(-40.0, 40.0, 1201) * bw
    w = np.unique(np.concatenate([w_line, w_filt]))
    w = w[w > 0]
    line = (lam / np.pi) / (lam**2 + (w - omega_l) ** 2)
    return float(np.trapezoid(line * exact_filter(seq, w), w))


def quad_overlap_k(n_pulses, tau, omega_l, lam):
    """K = 2 int_0^T A(s) exp(-lam s) cos(omega_l s) ds by adaptive quadrature,
    with A the autocorrelation of the +-1 toggling function summed over all
    segment pairs; A is linear between multiples of tau / 2."""
    edges = np.concatenate([[0.0], (np.arange(n_pulses) + 0.5) * tau, [n_pulses * tau]])
    signs = (-1.0) ** np.arange(n_pulses + 1)

    def integrand(s):
        lo = np.maximum(edges[:-1, None], edges[None, :-1] - s)
        hi = np.minimum(edges[1:, None], edges[None, 1:] - s)
        autocorr = signs @ np.clip(hi - lo, 0.0, None) @ signs
        return autocorr * np.exp(-lam * s) * np.cos(omega_l * s)

    knots = np.arange(2 * n_pulses + 1) * tau / 2
    return 2 * sum(
        quad(integrand, lo, hi, epsabs=1e-14 * tau**2, epsrel=1e-12)[0]
        for lo, hi in zip(knots[:-1], knots[1:])
    )


# share of the unit-area line the grid leaves outside its +-40 lam window,
# which it integrates only on the coarse filter grid or not at all; over the
# depth suite the two overlaps in fact agree to ~3e-4 of the peak
GRID_TRUNCATION = 1 - (2 / np.pi) * np.arctan(40.0)


class TestBrms:
    def test_direct_evaluation_glycerine(self):
        # rho (mu0 hbar gamma_n / 4pi)^2 (5 pi / 96 d^3) evaluated by hand
        m = ProtonBathModel(rho=RHO_GLYCERINE, d_nv=31.7e-9)
        mu0_hbar_g = 1e-7 * 1.054571817e-34 * TWO_PI * 42.577e6
        expected = 66e27 * mu0_hbar_g**2 * 5 * np.pi / (96 * (31.7e-9) ** 3)
        assert b_rms_squared(m) == pytest.approx(expected, rel=1e-6)
        assert np.sqrt(b_rms_squared(m)) == pytest.approx(5.19e-8, rel=0.01)

    def test_cubic_law(self):
        m1 = ProtonBathModel(rho=RHO_GLYCERINE, d_nv=20e-9)
        m2 = ProtonBathModel(rho=RHO_GLYCERINE, d_nv=40e-9)
        assert b_rms_squared(m2) == pytest.approx(b_rms_squared(m1) / 8, rel=1e-12)

    def test_oil_density(self):
        m = ProtonBathModel(rho=RHO_IMMERSION_OIL, d_nv=31.7e-9)
        ratio = b_rms_squared(m) / b_rms_squared(
            ProtonBathModel(rho=RHO_GLYCERINE, d_nv=31.7e-9)
        )
        assert ratio == pytest.approx(69.5 / 66.0, rel=1e-12)


class TestProtonSignal:
    def test_vanishing_bath_full_coherence(self):
        m = ProtonBathModel(rho=1e-10, d_nv=31.7e-9)
        taus = np.linspace(0.9 * TAU_LARMOR, 1.1 * TAU_LARMOR, 5)
        np.testing.assert_allclose(
            proton_signal_coherence(m, 64, taus, B0_MEAS), 1.0, atol=1e-9
        )

    def test_dip_centered_at_half_larmor_period(self):
        data = make_dataset(31.7e-9, 1024)
        tau_min = data.taus[np.argmin(data.coherence)]
        assert tau_min == pytest.approx(TAU_LARMOR, rel=0.02)

    def test_nonpositive_pulse_count_or_spacing_rejected(self):
        m = ProtonBathModel(rho=RHO_GLYCERINE, d_nv=31.7e-9)
        for n in (0, -16):
            with pytest.raises(ValueError):
                proton_signal_coherence(m, n, [TAU_LARMOR], B0_MEAS)
        with pytest.raises(ValueError):
            proton_signal_coherence(m, 64, [0.0, TAU_LARMOR], B0_MEAS)

    @pytest.mark.parametrize("rho, d_nv", [(0.0, 31.7e-9), (RHO_GLYCERINE, -1e-9)])
    def test_nonpositive_density_or_depth_rejected(self, rho, d_nv):
        with pytest.raises(ValueError, match="^rho and d_nv must be > 0$"):
            ProtonBathModel(rho=rho, d_nv=d_nv)

    def test_dip_deepens_with_shallower_nv(self):
        shallow = make_dataset(20e-9, 512).coherence.min()
        deep = make_dataset(40e-9, 512).coherence.min()
        assert shallow < deep


class TestOverlapClosedForm:
    # every suite pulse count, plus N = 1 and 2 (no and one middle segment);
    # at lam = 1e3 and N <= 2 the grid itself is off by up to 15%: its filter
    # window is coarse there and the trapezoid across the gap next to the
    # +-40 lam line window overcounts the line tail
    @pytest.mark.parametrize(
        "n_pulses, lam",
        [(n, lam) for _, n, _ in DEPTH_SUITE for lam in (1e3, 1e4, 4e4, 1e5)]
        + [(n, lam) for n in (1, 2) for lam in (1e4, 4e4, 1e5)],
    )
    def test_matches_grid_it_replaced(self, n_pulses, lam):
        old = np.array([grid_overlap_k(n_pulses, t, OMEGA_L, lam) for t in SUITE_TAUS])
        new = _overlap_k(n_pulses, SUITE_TAUS, OMEGA_L, lam)
        np.testing.assert_allclose(new, old, rtol=0, atol=GRID_TRUNCATION * old.max())

    @pytest.mark.parametrize("n_pulses", [1, 2, 3, 16])
    @pytest.mark.parametrize("lam", [1e3, 4e4, 1e6, 1e7])
    def test_matches_time_domain_quadrature(self, n_pulses, lam):
        taus = np.array([0.8, 0.95, 1.0, 1.2]) * TAU_LARMOR
        ref = np.array([quad_overlap_k(n_pulses, t, OMEGA_L, lam) for t in taus])
        np.testing.assert_allclose(
            _overlap_k(n_pulses, taus, OMEGA_L, lam), ref, rtol=1e-9
        )

    def test_broadcasts_over_tau_and_linewidth(self):
        lams = np.array([1e4, 4e4, 1e5])
        grid = _overlap_k(64, SUITE_TAUS, OMEGA_L, lams[:, None])
        assert grid.shape == (3, len(SUITE_TAUS))
        for row, lam in zip(grid, lams):
            np.testing.assert_array_equal(row, _overlap_k(64, SUITE_TAUS, OMEGA_L, lam))


class TestFitDepth:
    def test_round_trip_nv3(self):
        data = make_dataset(31.7e-9, 4096, noise=0.01, seed=3)
        fit = fit_depth(data)
        assert fit.d_nv == pytest.approx(31.7e-9, abs=1.1e-9)
        assert fit.d_nv_sigma > 0

    def test_no_dip_degenerate(self):
        data = make_dataset(31.7e-9, 4096)
        flat = DepthDataset(
            data.taus,
            np.full_like(data.taus, 0.99),
            data.sigma,
            data.n_pulses,
            data.b0,
        )
        with pytest.raises(NumericalError, match="no visible dip"):
            fit_depth(flat)

    def test_dip_off_the_larmor_resonance_is_no_amplitude(self):
        """A scan that dips only where the proton line cannot reach, and rises
        above 1 at the resonance, projects onto no dip amplitude."""
        data = make_dataset(31.7e-9, 4096)
        coherence = np.where(data.coherence < 0.99, 1.04, 1.0)
        coherence[0] = 0.9
        off = DepthDataset(data.taus, coherence, data.sigma, data.n_pulses, data.b0)
        with pytest.raises(NumericalError, match="^dip amplitude fitted to zero$"):
            fit_depth(off)

    def test_rho_degeneracy_cube_root(self):
        # fitting with doubled density shifts the depth by exactly 2^(1/3)
        data = make_dataset(31.7e-9, 4096, noise=0.005, seed=7)
        fit1 = fit_depth(data)
        fit2 = fit_depth(dataclasses.replace(data, rho=2 * RHO_GLYCERINE))
        assert fit2.d_nv / fit1.d_nv == pytest.approx(2 ** (1 / 3), rel=5e-3)

    @pytest.mark.parametrize("index", range(len(DEPTH_SUITE)))
    def test_polish_converges_from_an_offset_start(self, index, monkeypatch):
        """The polish, started 5% off in depth and 20% off in linewidth in
        each direction, ends within 1e-3 sigma of the polish from the scan's
        start."""
        data = make_depth_suite()[index][0]
        fit = fit_depth(data)
        for depth_factor in (0.95, 1.05):
            for linewidth_factor in (0.8, 1.2):

                def offset_start(model, x, y, p0, *args, **kwargs):
                    start = (p0[0] * depth_factor, p0[1] + np.log(linewidth_factor))
                    return least_squares(model, x, y, start, *args, **kwargs)

                monkeypatch.setattr(depth, "least_squares", offset_start)
                moved = fit_depth(data)
                assert abs(moved.d_nv - fit.d_nv) < 1e-3 * fit.d_nv_sigma
                assert abs(moved.linewidth - fit.linewidth) < 1e-3 * fit.linewidth_sigma


@pytest.mark.parametrize(
    "depth_m, n_pulses", [(17.3e-9, 1024), (31.7e-9, 4096)], ids=["17.3nm", "31.7nm"]
)
def test_reported_sigma_matches_the_depth_spread(depth_m, n_pulses):
    """Over noise seeds 0-59 (noise 0.005) the spread of the fitted depth
    is the reported sigma, and the fits centre on the true depth.

    Over 2,400 seeds the spread is 0.999 of the mean sigma at both depths.
    Forty blocks of 60 seeds give ratios with a spread of 0.10 (0.80-1.25)
    and mean offsets with a spread of 0.13 sigma, so the bounds are 4 of
    those spreads. Seeds 0-59 read 0.86 and 0.84: a seed draws the same
    noise at both depths, so the two ratios move together."""
    fits = [
        fit_depth(make_dataset(depth_m, n_pulses, noise=0.005, seed=seed))
        for seed in range(60)
    ]
    d = np.array([f.d_nv for f in fits])
    sigma = np.mean([f.d_nv_sigma for f in fits])
    assert 0.6 <= np.std(d, ddof=1) / sigma <= 1.4
    assert abs(np.mean(d) - depth_m) <= 0.5 * sigma


@pytest.mark.parametrize("n_rows", [1, 2])
def test_scan_with_no_more_rows_than_parameters_is_refused(n_rows):
    """A scan of one or two rows from the deepest point of the dip cannot fix
    depth and linewidth; the refusal names the fit and both counts."""
    data = make_dataset(31.7e-9, 4096, noise=0.005, seed=0)
    rows = slice(int(np.argmin(data.coherence)), None)
    sub = dataclasses.replace(
        data,
        taus=data.taus[rows][:n_rows],
        coherence=data.coherence[rows][:n_rows],
        sigma=data.sigma[rows][:n_rows],
    )
    message = (
        f"depth fit covariance is not finite with {n_rows} point(s) for 2 "
        "parameter(s); the fit needs at least 3 points"
    )
    with pytest.raises(NumericalError, match=re.escape(message)):
        fit_depth(sub)


@pytest.mark.parametrize("index", range(len(DEPTH_SUITE)))
def test_three_point_windows_fit_or_refuse(index):
    """Every 3-point window of a suite scan (the files `nvsense --seed 0 gen
    depth --suite` writes) is refused or fits off the bounds with sigma_d < d."""
    data = make_depth_suite()[index][0]
    for i in range(len(data.taus) - 2):
        window = slice(i, i + 3)
        sub = dataclasses.replace(
            data,
            taus=data.taus[window],
            coherence=data.coherence[window],
            sigma=data.sigma[window],
        )
        try:
            fit = fit_depth(sub)
        except NumericalError:
            continue
        assert 1e-9 * (1 + 1e-6) < fit.d_nv < 500e-9 * (1 - 1e-6)
        assert 1e3 * (1 + 1e-6) < fit.linewidth < 1e7 * (1 - 1e-6)
        assert fit.d_nv_sigma < fit.d_nv


class TestDatasetIO:
    def test_roundtrip_with_sidecar(self):
        data = make_dataset(31.7e-9, 1024, noise=0.01, seed=1, n_tau=11)
        back = DepthDataset.from_csv(data.to_csv(), data.sidecar())
        np.testing.assert_array_equal(back.taus, data.taus)
        np.testing.assert_array_equal(back.coherence, data.coherence)
        assert back.n_pulses == 1024
        assert back.b0 == B0_MEAS
        assert back.rho == pytest.approx(RHO_GLYCERINE)
        meta = json.loads(data.sidecar())
        assert meta["sample"] == "glycerine"

    def test_missing_header(self):
        with pytest.raises(ValueError, match="line 1: expected the header"):
            DepthDataset.from_csv("1e-7,0.5,0.01\n", json.dumps({"N": 8}))

    @pytest.mark.parametrize("coherence", [7.0, -3.0])
    def test_coherence_outside_range(self, coherence):
        # the range every scan holds, a curve's as well
        with pytest.raises(ValueError, match=r"coherence outside \[-0.05, 1.05\]"):
            DepthDataset([1e-7, 2e-7], [0.9, coherence], [0.01, 0.01], 16, B0_MEAS)

    def test_validation(self):
        good = [[1e-7, 2e-7], [0.9, 0.5], [0.01, 0.01]]
        with pytest.raises(ValueError, match="equal length"):
            DepthDataset(good[0], good[1][:1], good[2], 8, B0_MEAS)
        for bad in (np.nan, np.inf):
            for column in range(3):
                arrays = [list(a) for a in good]
                arrays[column][0] = bad
                with pytest.raises(ValueError, match="must be finite"):
                    DepthDataset(*arrays, 8, B0_MEAS)
