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

from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E
from .errors import REQUIRED, as_int
from .tables import Scan

_BASE_BLOCK = {"CPMG": 1, "XY8": 8, "XY16": 16, "RAMSEY": 0}


def check_train(family, n_pulses: int):
    """Raise ``ValueError`` unless ``family`` names a sequence family and
    ``n_pulses`` is a pulse count it takes: none for RAMSEY, a positive
    multiple of its base block for the others."""
    if not isinstance(family, str) or family not in _BASE_BLOCK:
        raise ValueError(f"unknown sequence family {family!r}")
    block = _BASE_BLOCK[family]
    if block == 0:
        if n_pulses != 0:
            raise ValueError("RAMSEY carries no pi pulses")
    elif n_pulses <= 0 or n_pulses % block != 0:
        raise ValueError(f"{family} needs a positive multiple of {block} pulses")


@dataclass(frozen=True)
class DDSequence:
    """A pi-pulse train with CPMG timing t_j = T (j - 1/2) / N."""

    family: str
    n_pulses: int
    total_time: float

    def __post_init__(self):
        check_train(self.family, self.n_pulses)
        if self.total_time <= 0:
            raise ValueError("total_time must be > 0")

    @property
    def omega0(self) -> float:
        """Passband center pi N / T in rad/s."""
        return np.pi * self.n_pulses / self.total_time


def filter_delta_comb(seq: DDSequence, k_max: int):
    """Delta-comb approximation: the odd harmonics (2k+1) omega_0 and their
    weights 2 pi T * (4/pi^2) / (2k+1)^2, k = 0..k_max, as two arrays."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    odd = 2 * np.arange(k_max + 1) + 1
    return odd * seq.omega0, 2 * np.pi * seq.total_time * (4 / np.pi**2) / odd**2


def coherence_from_spectrum(spectrum, seq: DDSequence, k_max: int = 200) -> float:
    """Coherence C = exp(-dphi^2/2) from a one-sided noise spectrum.

    ``spectrum`` is a callable S(omega) in T^2/Hz; the comb calls it once
    on the array of harmonics, so it must accept arrays (every bundled
    spectrum does). A NoiseSpectrum passes as its ``evaluate``.
    """
    harmonics, weights = filter_delta_comb(seq, k_max)
    vals = np.asarray(spectrum(harmonics), dtype=float)
    if np.any(vals < 0):
        raise ValueError("spectrum must be nonnegative")
    dphi2 = GAMMA_E**2 / np.pi * float(np.sum(weights * vals))
    return float(np.exp(-dphi2 / 2.0))


@dataclass
class CoherenceCurve(Scan):
    """Measured or simulated coherence versus total evolution time: a
    ``tables.Scan`` whose sidecar holds the pulse train, ``family`` and ``N``
    (the defaults when a curve is read without one)."""

    times: np.ndarray
    coherence: np.ndarray
    sigma: np.ndarray
    family: str = "XY16"
    n_pulses: int = 0

    HEADER = "time_s,coherence,sigma"
    GRID = "times"
    SIDECAR = {"family": (None, REQUIRED), "N": (as_int, REQUIRED)}

    def _meta(self) -> dict:
        return {"family": self.family, "N": self.n_pulses}
