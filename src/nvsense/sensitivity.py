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
import math
from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E, HBAR, MU_0
from .errors import NumericalError, TableError, least_squares
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

    def as_dict(self) -> dict:
        return {
            "t_c_s": self.t_c,
            "c": self.c,
            "f_i": self.f_i,
            "f_r": self.f_r,
            "t_ir_s": self.t_ir,
            "gamma_e_rad_s_t": self.gamma_e,
            "eta_t_per_sqrt_hz": eta_from_budget(self),
        }


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
    b_v: float  # T/V
    phi: float  # rad


def parabola_basis(volts) -> np.ndarray:
    """The Vandermonde matrix [v², v, 1] of a voltage sweep with unit-norm
    columns, as ``np.polyfit`` scales it: the basis of ``fit_fringe``'s
    parabola check. A sweep whose columns do not scale to finite numbers (a
    voltage whose square or fourth power leaves the float range, such as
    1e-100 V) raises ValueError. Needs numpy only, so a sweep can be checked
    before anything is simulated."""
    volts = np.asarray(volts, dtype=float)
    with np.errstate(over="ignore"):
        vander = np.vander(volts, 3)
        scale = np.sqrt(np.sum(vander * vander, axis=0))
    if not np.all(np.isfinite(scale) & (scale > 0)):
        lo, hi = float(volts.min()), float(volts.max())
        raise ValueError(
            f"voltage sweep from {lo!r} to {hi!r} V cannot be checked against "
            "a parabola: its voltages' powers leave the float range"
        )
    return vander / scale


def fit_fringe(volts, counts, t_interrogation) -> FringeFit:
    """Least-squares fringe fit returning the field-per-volt coefficient.

    Raises NumericalError when the voltage sweep covers less than one full
    fringe period (the coefficient is ambiguous), when the fitted sinusoid
    leaves no smaller residual sum of squares than a parabola through the
    same points (the sweep resolves no period, whatever k the fit reports),
    when the fringe has no contrast, or when the fit does not converge.

    The parabola is the projection of the counts onto ``parabola_basis``,
    through ``scipy.linalg.qr``: that is the LAPACK the fringe fit has
    already loaded, where ``np.polyfit`` would load numpy's own beside it.
    A sweep ``parabola_basis`` refuses raises ValueError before anything is
    fitted.
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
    basis = parabola_basis(volts)

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

    popt, _ = least_squares(
        model, volts, counts, (a0, k0, 0.0, c0),
        ([0.0, 0.1 * k0, -2 * np.pi, -np.inf], [np.inf, 10 * k0, 2 * np.pi, np.inf]),
        "fringe fit",
    )
    a, k, phi, c = popt
    if a < 1e-12 * max(abs(c), 1.0):
        raise NumericalError("fitted fringe contrast is zero")
    if k * span < 2 * np.pi:
        raise NumericalError(
            "voltage sweep covers less than one fringe period; "
            "the field-per-volt coefficient is ambiguous"
        )
    # a sweep shorter than a period can be fitted with a spurious k that passes
    # the check above; on it a parabola does as well as the sinusoid
    from scipy.linalg import qr

    q, _ = qr(basis, mode="economic")
    parabola = q @ (q.T @ counts)
    rss = np.sum((counts - model(volts, *popt)) ** 2)
    if rss >= np.sum((counts - parabola) ** 2):
        raise NumericalError(
            "fitted fringe leaves no smaller residual than a parabola; "
            "the voltage sweep does not resolve a fringe period"
        )
    return FringeFit(
        a=float(a), b_v=float(k / (GAMMA_E * t_interrogation)), phi=float(phi)
    )


# shots per int64 slice: with |counts| < 2**23 a slice sums p**2 below 2**60
_CHUNK = 1 << 14


def _window_sums(counts, signs, ends):
    """Exact sums of p, p**2, s*p and s over the first n shots, for each n
    in ``ends`` (increasing), as Python ints.

    The shots are taken in int64 slices of at most ``_CHUNK``, cut at every
    window end, so no array as long as the run is made. A sign other than
    +-1 raises ``ValueError``.
    """
    cuts = np.union1d(ends, np.arange(0, ends[-1], _CHUNK)).tolist()
    at = set(ends.tolist())
    sums, total = [], (0, 0, 0, 0)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        s = signs[lo:hi]
        if np.any(np.abs(s) != 1):
            raise ValueError("signs must be +1 or -1")
        p, s = counts[lo:hi].astype(np.int64), s.astype(np.int64)
        part = (p.sum(), p @ p, s @ p, s.sum())
        total = tuple(a + int(b) for a, b in zip(total, part))
        if hi in at:
            sums.append(total)
    return sums


def sensitivity_from_timeseries(
    counts,
    signs,
    signal_amplitude: float,
    shot_duration: float,
):
    """Sensitivity versus averaging time from per-shot photon counts.

    ``counts`` are integer photon counts and ``signs`` the +-1 chop sign of
    each shot; the per-shot outcome is signs * (counts - mean(counts)), the
    mean taken over the whole run, so its mean is proportional to the
    applied amplitude. At each of 50 log-spaced averaging times t the
    signal-to-noise ratio is mean / standard error (ddof=1) over the first
    n = t / shot_duration shots, and eta(t) = amplitude * sqrt(t) / SNR(t).

    Each window's mean and variance are formed exactly, as fractions of the
    integer window sums, and t var / (n mean**2) is rounded once, so eta(t)
    is within about one ulp of its exact value and no per-shot float array
    is made.

    Returns (times, eta_curve, asymptote); the asymptote averages the final
    half decade.
    """
    counts, signs = np.asarray(counts), np.asarray(signs)
    if counts.ndim != 1 or counts.shape != signs.shape:
        raise ValueError("counts and signs must be 1-D and equally long")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got {counts.dtype}")
    n_shots = len(counts)
    if n_shots < 100:
        raise ValueError("need at least 100 shots")
    if signal_amplitude <= 0 or shot_duration <= 0:
        raise ValueError("amplitude and shot duration must be > 0")
    if max(-int(counts.min()), int(counts.max())) >= 2**23:
        raise ValueError("counts must lie within +-2**23")

    from fractions import Fraction  # off the CLI's start-up

    ns = np.unique(np.geomspace(100, n_shots, 50).astype(int))
    sums = _window_sums(counts, signs, ns)
    mean_count = Fraction(sums[-1][0], n_shots)
    times = ns * shot_duration
    eta = np.empty(len(ns))
    for i, (n, (sum_p, sum_p2, sum_sp, sum_s)) in enumerate(zip(ns.tolist(), sums)):
        mean = (sum_sp - mean_count * sum_s) / n
        # the sum of squares about the run mean, less n mean**2 about the window's
        ss = sum_p2 - 2 * mean_count * sum_p + n * mean_count**2 - n * mean**2
        var = ss / (n - 1)
        # the windows are nested prefixes, so each has a noise scale if the first does
        if i == 0 and var == 0:
            raise NumericalError("zero-variance outcomes carry no noise scale")
        ratio = Fraction(float(times[i])) * var / (n * mean**2) if mean else math.inf
        eta[i] = signal_amplitude * math.sqrt(ratio)
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
    try:
        return [MagnetometerRecord(*row) for row in zip(*(c.tolist() for c in columns))]
    except ValueError as exc:  # a row the records refuse: the CLI names the table
        raise TableError(str(exc)) from exc


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
