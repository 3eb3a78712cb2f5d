"""Noise-spectrum reconstruction from coherence decays and the ERL noise line.

Spectral decomposition: each coherence point C(T) measured under a pi-pulse
train with passband omega_0 = pi N / T gives the zeroth-order quantity

    S0(omega_0) = -2 ln C(T) / (gamma_e^2 T) = 8/pi^2 sum_{m odd} S(m omega_0) / m^2

which mixes the spectrum at omega_0 with its odd harmonics. For the surface
noise model S(w) = A W^2 / (W^2 + w^2) + F the comb sums in closed form
(sum_{m odd} 1/(m^2 + c^2) = pi tanh(pi c/2) / (4c)), so (A, W, F) fit
straight to the S0 values:

    S0(omega_0) = F + A (1 - tanh(x) / x),   x = pi W / (2 omega_0)

Starting from S_0 = pi^2/8 * S0, ``n`` passes (all ``n`` run, with no early
stop) of

    S_n(omega_0) = pi^2/8 * S0(omega_0) - sum_{m>=3 odd} S_{n-1}(m omega_0) / m^2

take the harmonics out: those on the measured grid from the previous pass,
those past it from the fitted model, in closed form. One pass is not enough:
where a band's harmonics sit on a flat stretch of the spectrum, it subtracts
them at pi^2/8 times their value and reads (pi^2/8 - 1)^2 ~ 5.4% low. A band
reads only bands above it, so each pass fixes one more link of the longest
chain of bands that each read the next, and the passes then stop changing.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E, HBAR, MU_0
from .errors import NumericalError, least_squares

# at most this many harmonics per band come from the grid; the model gives the rest
GRID_HARMONICS = 2000  # bounds the memory of a grid that spans many decades
# the fewest passes after which a further pass changes no band by 1e-15 (in
# fact by no bit) on the `gen noise` curves, noiseless and at --noise 0.005 with
# seeds 0-19: their bands span 40 kHz to 2 MHz, a chain of four links
PASSES = 4


@dataclass
class NoiseSpectrum:
    """One-sided magnetic noise spectral density on an angular-frequency grid."""

    omega: np.ndarray  # rad/s, strictly increasing
    s: np.ndarray  # T^2/Hz

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        if self.omega.shape != self.s.shape:
            raise ValueError("omega and s must have the same shape")
        if np.any(np.diff(self.omega) <= 0):
            raise ValueError("omega grid must be strictly increasing")
        if np.any(self.s < 0):
            raise ValueError("spectral density must be nonnegative")

    def evaluate(self, w) -> np.ndarray:
        """Interpolate (log-log) within the grid; hold the end values outside."""
        logw = np.log(np.clip(w, 1e-300, None))
        logs = np.log(np.clip(self.s, 1e-300, None))
        out = np.exp(np.interp(logw, np.log(self.omega), logs))
        return np.where(out < 1e-300, 0.0, out)[()]  # a scalar for a scalar ``w``


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


def spectrum_iterate(omega0: np.ndarray, s0: np.ndarray, n: int = PASSES):
    """Refine the zeroth-order values ``s0`` at passband centers ``omega0``
    with ``n`` passes of the odd-harmonic deconvolution -> (NoiseSpectrum,
    info); info holds the passes run and the bands' ``fit_lorentzian``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    order = np.argsort(omega0)
    omega0, s0 = np.asarray(omega0, dtype=float)[order], np.asarray(s0, dtype=float)[order]
    if not omega0[0] > 0:
        raise ValueError("passband centers must be > 0")
    # sequences with different N can probe the same passband; average them
    first = np.r_[True, omega0[1:] > omega0[:-1] * (1 + 1e-9)]
    group = np.cumsum(first) - 1
    omega0, s0 = omega0[first], np.bincount(group, s0) / np.bincount(group)
    fit = fit_lorentzian(omega0, s0)

    # each band's odd harmonics m >= 3 on the grid (GRID_HARMONICS at most)
    counts = np.minimum((omega0[-1] / omega0 - 1) // 2, GRID_HARMONICS).astype(int)
    band = np.repeat(np.arange(len(omega0)), counts)
    m = 2 * (np.arange(len(band)) - np.repeat(np.cumsum(counts) - counts, counts)) + 3

    def on_grid(spectrum):
        return np.bincount(band, spectrum(m * omega0[band]) / m**2, minlength=len(omega0))

    # the model's comb total less its terms on the grid
    naive, comb = np.pi**2 / 8 * s0, np.pi**2 / 8 * _zeroth(omega0, fit.s_max, fit.width, fit.floor)
    tail = comb - fit.spectrum(omega0) - on_grid(fit.spectrum)
    current = NoiseSpectrum(omega0, naive)
    for _ in range(n):
        corr = on_grid(current.evaluate) + tail
        current = NoiseSpectrum(omega0, np.clip(naive - corr, 0.0, None))
    return current, {"iterations": n, "fit": fit}


def reconstruct_spectrum(points, n: int = PASSES):
    """Full inversion: (DDSequence, coherence) pairs -> ``spectrum_iterate``."""
    pairs = [spectrum_zeroth(c, seq) for seq, c in points]
    if not pairs:
        raise ValueError("need at least one coherence point")
    omega0, s0 = np.array(pairs).T
    return spectrum_iterate(omega0, s0, n=n)


def deduct_t1(curve, t1: float):
    """Divide out the spin-lattice envelope exp(-t/T1); clip to [0, 1.05].

    The single-exponential envelope form is a documented convention.
    T1 = inf leaves the curve unchanged. A T1 so short that the envelope
    drops below the normal float range at the curve's times is rejected:
    the envelope has then lost its precision or reached zero.
    """
    from .sequences import CoherenceCurve

    if not t1 > 0:  # NaN fails this too
        raise ValueError(f"t1 must be > 0, got {t1}")
    env = np.exp(-curve.times / t1)
    underflow = env < np.finfo(float).tiny
    if np.any(underflow):
        raise ValueError(
            f"t1 = {t1:g} s is too short: exp(-t/T1) underflows from "
            f"t = {curve.times[underflow][0]:g} s"
        )
    c = np.clip(curve.coherence / env, 0.0, 1.05)
    sigma = curve.sigma / env
    return CoherenceCurve(
        curve.times, c, sigma, family=curve.family, n_pulses=curve.n_pulses
    )


def _zeroth(omega0, s_max, width, floor):
    """S0 of the model: F + A (1 - tanh(x)/x), x = pi W / (2 omega_0); below
    x = 0.02, where the difference cancels, its Taylor series."""
    x = np.pi / 2 * width / np.asarray(omega0, dtype=float)
    big = np.maximum(x, 0.02)
    shape = np.where(x < 0.02, x**2 / 3 - 2 * x**4 / 15 + 17 * x**6 / 315, 1 - np.tanh(big) / big)
    return floor + s_max * shape


@dataclass
class LorentzianFit:
    """S = s_max W^2 / (W^2 + w^2) + floor with 1-sigma errors. A degenerate fit
    resolved no Lorentzian: it fitted the floor alone (s_max, width 0, sigmas None)."""

    s_max: float  # T^2/Hz
    width: float  # rad/s (HWHM of the Lorentzian in omega)
    floor: float  # T^2/Hz
    s_max_sigma: float | None
    width_sigma: float | None
    floor_sigma: float
    chi2_per_dof: float  # of the relative residuals
    degenerate_width: bool

    def spectrum(self, w):
        return self.s_max * self.width**2 / (self.width**2 + w**2) + self.floor

    def to_json(self) -> str:
        out = {"chi2_per_dof": self.chi2_per_dof, "degenerate_width": self.degenerate_width}
        for name, unit in (("s_max", "t2_per_hz"), ("width", "rad_s"), ("floor", "t2_per_hz")):
            out[f"{name}_{unit}"] = getattr(self, name)
            out[f"{name}_sigma_{unit}"] = getattr(self, f"{name}_sigma")
        return json.dumps(out, sort_keys=True)


def fit_lorentzian(omega0, s0) -> LorentzianFit:
    """Fit the model's S0 to zeroth-order data (``s0`` > 0 at passband centers
    ``omega0``) in relative residuals and scaled parameters: A and F over max
    S0, log W over the bands' geometric center, with A >= 0 and W from 1/100
    of the lowest band to 100 times the highest. A fit that fails or ends on
    a bound (``errors.least_squares``'s rule) has not resolved the
    Lorentzian: the floor is then fitted alone and the fit flagged
    ``degenerate_width``."""
    omega0, s0 = np.asarray(omega0, dtype=float), np.asarray(s0, dtype=float)
    if not np.all(s0 > 0):
        raise ValueError("zeroth-order densities must be > 0")
    w_scale, s_scale = math.sqrt(omega0.min() * omega0.max()), s0.max()
    u, y = omega0 / w_scale, s0 / s_scale
    lo = np.array([0.0, math.log(omega0.min() / w_scale / 100), -np.inf])
    hi = np.array([np.inf, -lo[1], np.inf])
    try:
        p, cov = least_squares(
            lambda u, a, log_g, f: _zeroth(u, a, np.exp(log_g), f),
            u, y, (1 - y.min(), 0.0, y.min()), (lo, hi), "Lorentzian fit", sigma=y,
        )
    except NumericalError:  # unresolved: the floor alone, which flags the fit
        p, cov = least_squares(
            lambda u, f: np.full_like(u, f), u, y, (1.0,), (-np.inf, np.inf), "floor fit", sigma=y
        )
        scaled, sigmas, sig_f = (0.0, 0.0, p[0]), (None, None), math.sqrt(cov[0, 0])
    else:
        (a, log_g, f), (sig_a, sig_log_g, sig_f) = p, np.sqrt(np.diag(cov))
        scaled = (a, math.exp(log_g), f)
        sigmas = (sig_a * s_scale, sig_log_g * scaled[1] * w_scale)
    r = _zeroth(u, *scaled) / y - 1
    return LorentzianFit(
        scaled[0] * s_scale, scaled[1] * w_scale, scaled[2] * s_scale, *sigmas,
        sig_f * s_scale, r @ r / (len(r) - len(p)), len(p) == 1,
    )


def erl_noise_line(l_eff: float) -> float:
    """Noise level implied by the energy resolution limit: 2 mu0 hbar / (e l^3).
    An ``l_eff`` whose line leaves the float range, such as 1e-300 or 1e300,
    raises ValueError."""
    if not 0 < l_eff < math.inf:  # NaN fails this too
        raise ValueError(f"l_eff must be > 0 and finite, got {l_eff}")
    try:
        line = 2.0 * MU_0 * HBAR / (math.e * l_eff**3)
    except ArithmeticError:  # l^3 past the float range, or 0 after underflow
        line = math.nan
    if not 0 < line < math.inf:
        raise ValueError(f"l_eff {l_eff!r} gives an ERL noise line outside the float range")
    return line


def db_below_erl(s_measured: float, l_eff: float) -> float:
    """Power decibels of the measured density below the ERL noise line."""
    line = erl_noise_line(l_eff)
    if s_measured <= 0:
        raise ValueError("measured density must be > 0")
    return 10.0 * math.log10(line / s_measured)
