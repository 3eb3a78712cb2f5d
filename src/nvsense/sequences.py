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

from .constants import GAMMA_E
from .tables import read_table, write_table

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
    def omega0(self) -> float:
        """Passband center pi N / T in rad/s."""
        return np.pi * self.n_pulses / self.total_time

    def descriptor(self) -> dict:
        return {"family": self.family, "n_pulses": self.n_pulses}


@dataclass(frozen=True)
class FilterFunction:
    """Delta-comb filter: weights at odd harmonics of ``omega0``."""

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
    return FilterFunction(seq.omega0, weights)


def _spectrum_callable(spectrum):
    if callable(spectrum):
        return spectrum
    return spectrum.evaluate


def coherence_from_spectrum(
    spectrum,
    seq: DDSequence,
    gamma=GAMMA_E,
    k_max: int = 200,
) -> float:
    """Coherence C = exp(-dphi^2/2) from a one-sided noise spectrum.

    ``spectrum`` is a NoiseSpectrum or any callable S(omega) in T^2/Hz;
    the comb calls it once on the array of harmonics, so it must accept
    arrays (every bundled spectrum does).
    """
    s = _spectrum_callable(spectrum)
    ff = filter_delta_comb(seq, k_max)
    vals = np.asarray(s(ff.harmonics()), dtype=float)
    if np.any(vals < 0):
        raise ValueError("spectrum must be nonnegative")
    dphi2 = gamma**2 / np.pi * float(np.sum(ff.weights * vals))
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
        if not all(np.isfinite(a).all() for a in (self.times, self.coherence, self.sigma)):
            raise ValueError("times, coherence, sigma must be finite")
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

