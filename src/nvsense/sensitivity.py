"""Magnetic sensitivity budget, fringe calibration, and the energy
resolution benchmark.

The DC-equivalent sensitivity of a single-spin magnetometer decomposes as

    eta = 1 / (gamma_e sqrt(T_C)) * 1 / (C F_r F_i) * sqrt(1 + T_ir / T_C)

with phase-accumulation time T_C, remaining coherence C, readout and
initialization fidelities F_r / F_i, and dead time T_ir. The energy
resolution per bandwidth of a sensor with effective linear dimension l is

    E_R = eta^2 l^3 / (2 mu_0 hbar)

quoted in units of hbar.
"""

import importlib.resources
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .constants import GAMMA_E, HBAR, MU_0
from .errors import NumericalError
from .tables import read_table


@dataclass(frozen=True)
class SensitivityBudget:
    """The five factors entering the sensitivity formula."""

    t_c: float  # phase-accumulation time, s
    c: float  # remaining coherence at t_c, (0, 1]
    f_i: float  # initialization fidelity, (0, 1]
    f_r: float  # readout fidelity, (0, 1]
    t_ir: float  # initialization + readout overhead, s
    gamma_e: float = GAMMA_E

    def __post_init__(self):
        if self.t_c <= 0:
            raise ValueError("t_c must be > 0")
        if self.t_ir < 0:
            raise ValueError("t_ir must be >= 0")
        for name in ("c", "f_i", "f_r"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {v}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "t_c_s": self.t_c,
                "c": self.c,
                "f_i": self.f_i,
                "f_r": self.f_r,
                "t_ir_s": self.t_ir,
                "gamma_e_rad_s_t": self.gamma_e,
                "eta_t_per_sqrt_hz": eta_from_budget(self),
            },
            sort_keys=True,
        )


def eta_from_budget(b: SensitivityBudget) -> float:
    """Sensitivity in T/sqrt(Hz) from the five budget factors."""
    return (
        1.0
        / (b.gamma_e * math.sqrt(b.t_c))
        / (b.c * b.f_r * b.f_i)
        * math.sqrt(1.0 + b.t_ir / b.t_c)
    )


@dataclass
class FringeFit:
    """Photon-count fringe N_ph(V) = a sin(gamma_e T B_V V + phi) + c."""

    a: float
    c_offset: float
    b_v: float  # T/V
    b_v_sigma: float
    phi: float  # rad
    t_interrogation: float
    covariance: np.ndarray


def fit_fringe(volts, counts, t_interrogation, gamma_e=GAMMA_E) -> FringeFit:
    """Least-squares fringe fit returning the field-per-volt coefficient.

    Raises NumericalError when the voltage sweep covers less than one full
    fringe period (the coefficient is ambiguous), when the fringe has no
    contrast, or when the fit does not converge.
    """
    volts = np.asarray(volts, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if volts.shape != counts.shape or volts.ndim != 1:
        raise ValueError("volts and counts must be 1-D and equally long")
    if len(volts) < 8:
        raise ValueError("need at least 8 fringe points")
    span = volts.max() - volts.min()
    if span <= 0:
        raise ValueError("voltage sweep has zero span")

    c0 = float(np.mean(counts))
    a0 = float(np.sqrt(2.0) * np.std(counts))
    if a0 == 0.0:
        raise NumericalError("fringe has zero contrast")
    # frequency guess from the dominant Fourier component on a uniform grid
    grid = np.linspace(volts.min(), volts.max(), 4 * len(volts))
    resampled = np.interp(grid, volts[np.argsort(volts)], counts[np.argsort(volts)])
    spectrum = np.abs(np.fft.rfft(resampled - resampled.mean()))
    freqs = np.fft.rfftfreq(len(grid), grid[1] - grid[0])
    k0 = 2 * np.pi * freqs[1 + int(np.argmax(spectrum[1:]))]

    def model(v, a, k, phi, c):
        return a * np.sin(k * v + phi) + c

    try:
        popt, pcov = curve_fit(
            model,
            volts,
            counts,
            p0=(a0, k0, 0.0, c0),
            bounds=(
                [0.0, 0.1 * k0, -2 * np.pi, -np.inf],
                [np.inf, 10 * k0, 2 * np.pi, np.inf],
            ),
            maxfev=20000,
        )
    except (RuntimeError, ValueError) as exc:
        raise NumericalError("fringe fit did not converge") from exc
    a, k, phi, c = popt
    if a < 1e-12 * max(abs(c), 1.0):
        raise NumericalError("fitted fringe contrast is zero")
    if k * span < 2 * np.pi:
        raise NumericalError(
            "voltage sweep covers less than one fringe period; "
            "the field-per-volt coefficient is ambiguous"
        )
    scale = gamma_e * t_interrogation
    return FringeFit(
        a=float(a),
        c_offset=float(c),
        b_v=float(k / scale),
        b_v_sigma=float(np.sqrt(pcov[1, 1]) / scale),
        phi=float(phi),
        t_interrogation=float(t_interrogation),
        covariance=pcov,
    )


def sensitivity_from_timeseries(
    outcomes,
    signal_amplitude: float,
    shot_duration: float,
):
    """Sensitivity versus averaging time from demodulated per-shot outcomes.

    ``outcomes`` is the per-shot signal estimate (already demodulated so its
    mean is proportional to the applied amplitude). At each of 50
    log-spaced averaging times t the signal-to-noise ratio is mean /
    standard error over the first t / shot_duration shots, and
    eta(t) = amplitude * sqrt(t) / SNR(t).

    Returns (times, eta_curve, asymptote); the asymptote averages the final
    half decade.
    """
    x = np.asarray(outcomes, dtype=float)
    if len(x) < 100:
        raise ValueError("need at least 100 shots")
    if signal_amplitude <= 0 or shot_duration <= 0:
        raise ValueError("amplitude and shot duration must be > 0")

    ns = np.unique(np.geomspace(100, len(x), 50).astype(int))
    # the windows are nested prefixes, so each has a noise scale if the first does
    if np.std(x[: ns[0]]) == 0:
        raise NumericalError("zero-variance outcomes carry no noise scale")
    times = ns * shot_duration
    eta = np.empty(len(ns))
    for i, n in enumerate(ns):
        seg = x[:n]
        snr = abs(np.mean(seg)) / (np.std(seg, ddof=1) / np.sqrt(n))
        eta[i] = signal_amplitude * np.sqrt(times[i]) / snr if snr > 0 else np.inf
    tail = times >= times[-1] / np.sqrt(10.0)
    asymptote = float(np.mean(eta[tail]))
    return times, eta, asymptote


def erl_compute(eta: float, l_eff: float) -> float:
    """Energy resolution per bandwidth eta^2 l^3 / (2 mu_0 hbar), in hbar."""
    if eta < 0 or l_eff <= 0:
        raise ValueError("eta must be >= 0 and l_eff > 0")
    return eta**2 * l_eff**3 / (2.0 * MU_0 * HBAR)


def db_below_quantum_limit(e_r_hbar: float) -> float:
    """Power decibels below E_R = hbar: 10 log10(1 / E_R)."""
    if e_r_hbar <= 0:
        raise ValueError("E_R must be > 0")
    return 10.0 * math.log10(1.0 / e_r_hbar)


@dataclass(frozen=True)
class MagnetometerRecord:
    """One row of the cross-platform energy-resolution comparison."""

    kind: str
    l_eff: float  # m
    eta: float  # T/sqrt(Hz)
    ref: str
    e_r: float  # stored value, hbar

    def __post_init__(self):
        for name in ("l_eff", "eta", "e_r"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{self.kind}: {name} must be finite and > 0, got {v}")


_MAGNETOMETER_HEADER = "kind,l_eff_m,eta_t_per_sqrt_hz,ref,e_r_hbar"


def magnetometer_records_from_csv(text: str) -> list[MagnetometerRecord]:
    columns = read_table(text, _MAGNETOMETER_HEADER, text_columns=("kind", "ref"))
    return [MagnetometerRecord(*row) for row in zip(*(c.tolist() for c in columns))]


def load_reference_magnetometers() -> list[MagnetometerRecord]:
    """The bundled cross-platform comparison table."""
    text = (
        importlib.resources.files("nvsense.data")
        .joinpath("magnetometers.csv")
        .read_text()
    )
    return magnetometer_records_from_csv(text)


def erl_table_check(records) -> list[dict]:
    """Recompute E_R for each record and compare with the stored value.

    Returns one report dict per row; rows whose stored and recomputed E_R
    disagree by more than 10% are flagged inconsistent rather than rejected.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to check")
    out = []
    for r in records:
        computed = erl_compute(r.eta, r.l_eff)
        rel = abs(computed - r.e_r) / r.e_r
        out.append(
            {
                "kind": r.kind,
                "ref": r.ref,
                "l_eff_m": r.l_eff,
                "e_r_stored_hbar": r.e_r,
                "e_r_computed_hbar": computed,
                "relative_deviation": rel,
                "db_below_limit": (
                    db_below_quantum_limit(computed) if computed < 1.0 else None
                ),
                "consistent": bool(rel <= 0.10),
            }
        )
    return out
