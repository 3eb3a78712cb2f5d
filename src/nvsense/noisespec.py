"""Noise-spectrum reconstruction from coherence decays and the ERL noise line.

Spectral decomposition: each coherence point C(T) measured under a pi-pulse
train with passband omega_0 = pi N / T gives the zeroth-order quantity

    S0(omega_0) = -2 ln C(T) / (gamma_e^2 T)

which mixes the spectrum at omega_0 with its odd harmonics. The iterative
refinement

    S_n(omega_0) = pi^2/8 * S0(omega_0) - sum_{k>=1} S_{n-1}((2k+1) omega_0) / (2k+1)^2

converges quickly (one iteration suffices in practice). Harmonics beyond
the measured grid are extrapolated with a power-law tail fitted to the top
decade, since Lorentzian-like tails dominate the corrections there.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .constants import GAMMA_E, HBAR, MU_0
from .errors import NumericalError
from .tables import write_table

ITERATION_RTOL = 1e-3


@dataclass
class NoiseSpectrum:
    """One-sided magnetic noise spectral density on an angular-frequency grid."""

    omega: np.ndarray  # rad/s, strictly increasing
    s: np.ndarray  # T^2/Hz
    lorentzian: tuple | None = None  # (s_max, width, center) if fitted

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        if self.omega.shape != self.s.shape:
            raise ValueError("omega and s must have the same shape")
        if np.any(np.diff(self.omega) <= 0):
            raise ValueError("omega grid must be strictly increasing")
        if np.any(self.s < 0):
            raise ValueError("spectral density must be nonnegative")

    def _tail_exponent(self) -> float:
        """Power-law slope fitted over the top decade of the grid."""
        hi = self.omega >= self.omega[-1] / 10.0
        if np.count_nonzero(hi) < 2:
            hi = np.zeros_like(self.omega, dtype=bool)
            hi[-2:] = True
        w = self.omega[hi]
        s = np.clip(self.s[hi], 1e-300, None)
        slope = np.polyfit(np.log(w), np.log(s), 1)[0]
        return float(min(slope, 0.0))  # never let the tail grow

    def evaluate(self, w) -> np.ndarray:
        """Interpolate (log-log) within the grid, power-law tail outside."""
        w = np.asarray(w, dtype=float)
        scalar = w.ndim == 0
        w1 = np.atleast_1d(w).copy()
        out = np.empty_like(w1)
        logw = np.log(np.clip(w1, 1e-300, None))
        logs = np.log(np.clip(self.s, 1e-300, None))
        inside = (w1 >= self.omega[0]) & (w1 <= self.omega[-1])
        out[inside] = np.exp(
            np.interp(logw[inside], np.log(self.omega), logs)
        )
        below = w1 < self.omega[0]
        out[below] = self.s[0]
        above = w1 > self.omega[-1]
        if np.any(above):
            p = self._tail_exponent()
            out[above] = self.s[-1] * (w1[above] / self.omega[-1]) ** p
        out[out < 1e-300] = 0.0
        return out[0] if scalar else out

    def to_csv(self) -> str:
        return write_table("omega_rad_s,s_t2_per_hz", self.omega, self.s)


def spectrum_zeroth(coherence: float, seq) -> tuple[float, float]:
    """Zeroth-order density S0 = -2 ln C / (gamma_e^2 T) at omega_0 = pi N / T.

    ``seq`` is a DDSequence (or anything with omega0 / total_time).
    """
    if coherence <= 0:
        raise ValueError(f"coherence must be > 0, got {coherence}")
    if coherence > 1:
        raise ValueError(f"coherence must be <= 1, got {coherence}")
    s0 = -2.0 * math.log(coherence) / (GAMMA_E**2 * seq.total_time)
    return float(seq.omega0), float(s0)


def spectrum_iterate(
    s_prev: NoiseSpectrum | None,
    omega0: np.ndarray,
    s0: np.ndarray,
    n: int = 1,
    k_max: int = 2000,
):
    """Refine the zeroth-order values with the odd-harmonic deconvolution.

    ``omega0``/``s0`` are the measured passband centers and S0 values;
    ``s_prev`` seeds the harmonic correction (None starts from the
    single-harmonic estimate pi^2/8 * S0). Runs ``n`` iterations, stopping
    early once the maximum relative change drops below 1e-3.

    Returns (NoiseSpectrum, info) with info flagging harmonics that fell
    outside the measured grid.
    """
    omega0 = np.asarray(omega0, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    order = np.argsort(omega0)
    omega0, s0 = omega0[order], s0[order]
    # sequences with different N can probe the same passband; average them
    keep_w, keep_s = [omega0[0]], [[s0[0]]]
    for w, s in zip(omega0[1:], s0[1:]):
        if w <= keep_w[-1] * (1 + 1e-9):
            keep_s[-1].append(s)
        else:
            keep_w.append(w)
            keep_s.append([s])
    omega0 = np.array(keep_w)
    s0 = np.array([np.mean(vals) for vals in keep_s])
    if s_prev is None:
        s_prev = NoiseSpectrum(omega0, np.pi**2 / 8 * s0)

    k = np.arange(1, k_max + 1)
    factors = 1.0 / (2 * k + 1) ** 2
    extrapolated = bool(omega0[-1] * 3 > s_prev.omega[-1])
    info = {"iterations": 0, "converged": False, "extrapolated": extrapolated}
    current = s_prev
    for it in range(max(1, n)):
        new = np.empty_like(s0)
        for i, w0 in enumerate(omega0):
            harm = (2 * k + 1) * w0
            corr = float(np.sum(current.evaluate(harm) * factors))
            new[i] = np.pi**2 / 8 * s0[i] - corr
        new = np.clip(new, 0.0, None)
        prev_vals = current.evaluate(omega0)
        denom = np.where(prev_vals > 0, prev_vals, 1.0)
        change = float(np.max(np.abs(new - prev_vals) / denom))
        current = NoiseSpectrum(omega0, new)
        info["iterations"] = it + 1
        if change <= ITERATION_RTOL:
            info["converged"] = True
            break
    return current, info


def reconstruct_spectrum(points, n: int = 1):
    """Full inversion: (seq, coherence) pairs -> refined NoiseSpectrum.

    ``points`` iterates over (DDSequence, coherence) measurements.
    """
    omega0, s0 = [], []
    for seq, c in points:
        w, s = spectrum_zeroth(c, seq)
        omega0.append(w)
        s0.append(s)
    if not omega0:
        raise ValueError("need at least one coherence point")
    return spectrum_iterate(None, np.array(omega0), np.array(s0), n=n)


def deduct_t1(curve, t1: float):
    """Divide out the spin-lattice envelope exp(-t/T1); clip to [0, 1.05].

    The single-exponential envelope form is a documented convention.
    """
    from .sequences import CoherenceCurve

    if t1 <= 0:
        raise ValueError("t1 must be > 0")
    env = np.exp(-curve.times / t1)
    c = np.clip(curve.coherence / env, 0.0, 1.05)
    sigma = curve.sigma / env
    return CoherenceCurve(
        curve.times, c, sigma, family=curve.family, n_pulses=curve.n_pulses
    )


@dataclass
class LorentzianFit:
    s_max: float
    width: float  # rad/s (HWHM of the Lorentzian in omega)
    center: float  # rad/s
    covariance: np.ndarray
    degenerate_width: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "s_max_t2_per_hz": self.s_max,
                "width_rad_s": self.width,
                "center_rad_s": self.center,
                "degenerate_width": self.degenerate_width,
            },
            sort_keys=True,
        )


def fit_lorentzian(spec: NoiseSpectrum) -> LorentzianFit:
    """Least-squares centered Lorentzian fit S = S_max W^2 / (W^2 + w^2).

    A fit whose width runs past the grid by 100x is flagged degenerate
    (flat input).
    """
    if len(spec.omega) < 4:
        raise NumericalError("need at least 4 grid points")
    w_scale = spec.omega[-1]
    s_scale = max(spec.s.max(), 1e-300)
    w = spec.omega / w_scale
    s = spec.s / s_scale

    def model(x, a, g):
        return a * g**2 / (g**2 + x**2)

    try:
        popt, pcov = curve_fit(
            model, w, s, p0=(1.0, 0.5), bounds=([0, 1e-6], [10, 1e3]), maxfev=20000
        )
    except (RuntimeError, ValueError) as exc:
        raise NumericalError("Lorentzian fit did not converge") from exc
    a, g = popt
    return LorentzianFit(
        s_max=float(a * s_scale),
        width=float(g * w_scale),
        center=0.0,
        covariance=pcov,
        degenerate_width=bool(g > 100.0),
    )


def erl_noise_line(l_eff: float) -> float:
    """Noise level implied by the energy resolution limit: 2 mu0 hbar / (e l^3)."""
    if l_eff <= 0:
        raise ValueError("l_eff must be > 0")
    return 2.0 * MU_0 * HBAR / (math.e * l_eff**3)


def db_below_erl(s_measured: float, l_eff: float) -> float:
    """Power decibels of the measured density below the ERL noise line."""
    line = erl_noise_line(l_eff)
    if s_measured <= 0:
        raise ValueError("measured density must be > 0")
    return 10.0 * math.log10(line / s_measured)
