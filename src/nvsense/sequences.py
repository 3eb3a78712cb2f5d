"""Dynamical-decoupling sequences, filter functions, and coherence curves.

The coherence of a spin under a pi-pulse train decays as
C = exp(-dphi^2 / 2) with

    dphi^2 = gamma_e^2 / pi * integral S(omega) F(omega) domega

where F is the squared magnitude of the Fourier transform of the +-1
toggling function. For high pulse numbers F is well approximated by a
delta comb at odd harmonics of omega_0 = pi N / T with weights
2 pi T * (4 / pi^2) / (2k+1)^2.

Spectral densities follow the convention fixed by the phase-variance
integral above: S(omega) in T^2/Hz on a one-sided grid (omega >= 0),
numerically equal to the two-sided power spectral density of the field.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import curve_fit

from .constants import GAMMA_E
from .errors import NumericalError
from .tables import read_table, write_table

# Standard phase patterns (degrees) for one base block; CPMG pulses are
# all along y, and XY8/XY16 use the conventional published orderings.
_XY8_BLOCK = (0.0, 90.0, 0.0, 90.0, 90.0, 0.0, 90.0, 0.0)
_XY16_BLOCK = _XY8_BLOCK + tuple(p + 180.0 for p in _XY8_BLOCK)

_BASE_BLOCK = {"CPMG": 1, "XY8": 8, "XY16": 16, "RAMSEY": 0}


@dataclass(frozen=True)
class DDSequence:
    """A pi-pulse train with CPMG timing t_j = T (j - 1/2) / N."""

    family: str
    n_pulses: int
    total_time: float

    def __post_init__(self):
        if self.family not in _BASE_BLOCK:
            raise ValueError(f"unknown sequence family {self.family!r}")
        if self.total_time <= 0:
            raise ValueError("total_time must be > 0")
        block = _BASE_BLOCK[self.family]
        if block == 0:
            if self.n_pulses != 0:
                raise ValueError("RAMSEY carries no pi pulses")
        elif self.n_pulses <= 0 or self.n_pulses % block != 0:
            raise ValueError(
                f"{self.family} needs a positive multiple of {block} pulses"
            )

    @property
    def tau(self) -> float:
        """Inter-pulse spacing T / N."""
        if self.n_pulses == 0:
            return self.total_time
        return self.total_time / self.n_pulses

    @property
    def omega0(self) -> float:
        """Passband center pi N / T in rad/s."""
        return np.pi * self.n_pulses / self.total_time

    def pulse_times(self) -> np.ndarray:
        j = np.arange(1, self.n_pulses + 1)
        return self.total_time * (j - 0.5) / self.n_pulses

    def pulse_phases(self) -> np.ndarray:
        """Pulse phase per position in radians."""
        if self.n_pulses == 0:
            return np.array([])
        if self.family == "CPMG":
            block = (90.0,)
        elif self.family == "XY8":
            block = _XY8_BLOCK
        else:
            block = _XY16_BLOCK
        reps = self.n_pulses // len(block)
        return np.deg2rad(np.tile(block, reps))

    def descriptor(self) -> dict:
        return {"family": self.family, "n_pulses": self.n_pulses}


@dataclass(frozen=True)
class FilterFunction:
    """Delta-comb filter: weights at odd harmonics of ``omega0``."""

    representation: str
    omega0: float
    weights: np.ndarray  # weight of the delta at (2k+1) * omega0

    def harmonics(self) -> np.ndarray:
        k = np.arange(len(self.weights))
        return (2 * k + 1) * self.omega0


def filter_delta_comb(seq: DDSequence, k_max: int) -> FilterFunction:
    """Delta-comb approximation 2 pi T * (4/pi^2) / (2k+1)^2, k = 0..k_max."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    k = np.arange(k_max + 1)
    weights = 2 * np.pi * seq.total_time * (4 / np.pi**2) / (2 * k + 1) ** 2
    return FilterFunction("delta-comb", seq.omega0, weights)


def exact_filter(seq: DDSequence, omega) -> np.ndarray:
    """|y_T(omega)|^2 of the +-1 toggling function, continuous in omega."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ValueError("omega must be >= 0")
    t_j = seq.pulse_times()
    total = seq.total_time
    n = seq.n_pulses
    scalar = omega.ndim == 0
    w = np.atleast_1d(omega)

    with np.errstate(divide="ignore", invalid="ignore"):
        if n == 0:
            alt_sum = np.zeros_like(w, dtype=complex)
        else:
            # geometric closed form of sum_j (-1)^j exp(-i w tau (j - 1/2));
            # near the removable singularities at odd multiples of pi/tau the
            # explicit sum is used instead
            tau = total / n
            z = -np.exp(-1j * w * tau)
            denom = 1.0 - z
            alt_sum = -np.exp(-0.5j * w * tau) * (1.0 - z**n) / denom
            sing = np.abs(denom) < 1e-6
            if np.any(sing):
                signs = (-1.0) ** np.arange(1, n + 1)
                phases = np.exp(-1j * np.outer(w[sing], t_j))
                alt_sum[sing] = phases @ signs
        num = 1.0 + 2.0 * alt_sum - (-1.0) ** n * np.exp(-1j * w * total)
        y = num / (1j * w)
    # omega -> 0 limit: the DC value is the signed area of the toggling function
    small = np.abs(w) * total < 1e-8
    if np.any(small):
        edges = np.concatenate([[0.0], t_j, [total]])
        seg_signs = (-1.0) ** np.arange(n + 1)
        dc = float(np.sum(seg_signs * np.diff(edges)))
        y[small] = dc
    out = np.abs(y) ** 2
    return out[0] if scalar else out


def _spectrum_callable(spectrum):
    if callable(spectrum):
        return spectrum
    return spectrum.evaluate


def coherence_from_spectrum(
    spectrum,
    seq: DDSequence,
    gamma=GAMMA_E,
    method: str = "comb",
    k_max: int = 200,
) -> float:
    """Coherence C = exp(-dphi^2/2) from a one-sided noise spectrum.

    ``spectrum`` is a NoiseSpectrum or any callable S(omega) in T^2/Hz;
    the comb calls it once on the array of harmonics, so it must accept
    arrays (every bundled spectrum does). ``method`` selects the delta-comb
    sum or quadrature against the exact filter function.
    """
    s = _spectrum_callable(spectrum)
    if method == "comb":
        ff = filter_delta_comb(seq, k_max)
        vals = np.asarray(s(ff.harmonics()), dtype=float)
        if np.any(vals < 0):
            raise ValueError("spectrum must be nonnegative")
        dphi2 = gamma**2 / np.pi * float(np.sum(ff.weights * vals))
    elif method == "exact":
        w0 = seq.omega0
        upper = (2 * k_max + 1) * w0
        total = 0.0
        # integrate band by band so the narrow passbands are resolved
        edges = np.arange(0, 2 * k_max + 3, 2) * w0
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = quad(
                lambda w: s(w) * exact_filter(seq, w),
                lo,
                min(hi, upper),
                limit=400,
                epsrel=1e-8,
                epsabs=0.0,
            )
            total += val
        dphi2 = gamma**2 / np.pi * total
        if not np.isfinite(dphi2):
            raise NumericalError("filter-spectrum integral diverged")
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(np.exp(-dphi2 / 2.0))


_CURVE_HEADER = "time_s,coherence,sigma"


@dataclass
class CoherenceCurve:
    """Measured or simulated coherence versus total evolution time."""

    times: np.ndarray
    coherence: np.ndarray
    sigma: np.ndarray
    family: str = "XY16"
    n_pulses: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.coherence = np.asarray(self.coherence, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if not (len(self.times) == len(self.coherence) == len(self.sigma)):
            raise ValueError("times, coherence, sigma must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.coherence < -0.05) or np.any(self.coherence > 1.05):
            raise ValueError("coherence outside [-0.05, 1.05]")

    def to_csv(self) -> str:
        return write_table(_CURVE_HEADER, self.times, self.coherence, self.sigma)

    def sidecar(self) -> str:
        return json.dumps({"family": self.family, "N": self.n_pulses}, sort_keys=True)

    @classmethod
    def from_csv(cls, text: str, sidecar: str | None = None) -> "CoherenceCurve":
        t, c, s = read_table(text, _CURVE_HEADER)
        family, n = "XY16", 0
        if sidecar:
            meta = json.loads(sidecar)
            family, n = meta["family"], int(meta["N"])
        return cls(t, c, s, family=family, n_pulses=n)


def fit_stretched_exponential(curve: CoherenceCurve):
    """Fit C(t) = A exp(-(t/T2)^p).

    Returns (t2, p, amplitude, covariance). Raises NumericalError with the
    residual report when the fit does not converge.
    """
    if len(curve.times) < 4:
        raise NumericalError("need at least 4 points for a stretched-exponential fit")

    def model(t, t2, p, a):
        return a * np.exp(-((t / t2) ** p))

    t = curve.times
    c = np.clip(curve.coherence, 1e-6, None)
    # crude T2 guess: first crossing of 1/e
    below = np.nonzero(c < np.exp(-1.0))[0]
    t2_guess = t[below[0]] if len(below) else t[-1]
    sigma = curve.sigma if np.all(curve.sigma > 0) else None
    try:
        popt, pcov = curve_fit(
            model,
            t,
            curve.coherence,
            p0=(t2_guess, 1.0, 1.0),
            sigma=sigma,
            bounds=([t[0] / 100, 0.2, 0.3], [t[-1] * 100, 5.0, 1.2]),
            maxfev=20000,
        )
    except (RuntimeError, ValueError) as exc:
        resid = float(np.sum((curve.coherence - np.exp(-t / t2_guess)) ** 2))
        raise NumericalError(
            f"stretched-exponential fit failed (residual at guess {resid:.3g})"
        ) from exc
    t2, p, a = popt
    return float(t2), float(p), float(a), pcov


def t2_scaling(curves):
    """Per-N stretched-exponential fits: list of (N, T2, sigma_T2)."""
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one coherence curve")
    out = []
    for curve in curves:
        t2, _, _, pcov = fit_stretched_exponential(curve)
        out.append((curve.n_pulses, t2, float(np.sqrt(pcov[0, 0]))))
    return out
