"""NV-depth extraction from proton-NMR decoherence dips.

A statistically polarized proton bath above the diamond surface produces an
RMS field B_RMS with a d^-3 depth dependence; scanning the pi-pulse spacing
of an XY16-N train across the proton Larmor period imprints a coherence dip

    C(tau) = exp(-(2/pi^2) gamma_e^2 B_RMS^2 K(N tau)).

K is modeled as the overlap of the sequence filter function with a
normalized Lorentzian proton line of width 2/T2n* + D/d^2 (dephasing plus
diffusional broadening). This overlap form is a declared model choice
validated by round-trip fits, not a first-principles propagator treatment.

The declared line is the full unit-area Lorentzian at omega_L, integrated
over all frequencies: its correlation is exp(-lam |s|) cos(omega_L s), the
two-sided convention of the ``sequences`` module. The overlap with it is
evaluated in closed form. For lam << omega_L (the synthetic suite has
lam ~ 4e4 rad/s against omega_L ~ 9.4e6 rad/s) it equals the overlap with
the line cut to omega > 0; the two part by ~0.5% at lam = 1e6 and by up to
31% at lam = 1e7, the top of the fit's linewidth scan. Only pulse timing
enters the +-1 toggling function, so XY16 and CPMG trains share one filter
and one overlap.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit, minimize_scalar

from .constants import GAMMA_E, GAMMA_H, HBAR, MU_0
from .errors import NumericalError
from .tables import read_table, write_table

# proton number densities (m^-3)
RHO_GLYCERINE = 66e27
RHO_IMMERSION_OIL = 69.5e27


@dataclass(frozen=True)
class ProtonBathModel:
    """Proton bath above the diamond plus the NV depth below a [100] surface."""

    rho: float  # m^-3
    d_nv: float  # m
    gamma_n: float = GAMMA_H  # rad s^-1 T^-1
    t2n_star: float = 1e-3  # s
    diffusion: float = 0.0  # m^2/s

    def __post_init__(self):
        if self.rho <= 0 or self.d_nv <= 0:
            raise ValueError("rho and d_nv must be > 0")

    @property
    def linewidth(self) -> float:
        """Proton line HWHM in rad/s: dephasing plus diffusional broadening."""
        return 2.0 / self.t2n_star + self.diffusion / self.d_nv**2


def b_rms_squared(model: ProtonBathModel) -> float:
    """Mean-square proton field rho (mu0 hbar gamma_n / 4pi)^2 (5pi / 96 d^3)."""
    dipole = MU_0 * HBAR * model.gamma_n / (4 * np.pi)
    return model.rho * dipole**2 * (5 * np.pi) / (96 * model.d_nv**3)


def _overlap_k(n_pulses: int, tau, omega_l: float, lam) -> np.ndarray:
    """Overlap of the filter of an N-pulse train (spacing tau) with a
    normalized Lorentzian line at omega_l with HWHM lam.

    The line is the full one, exp(-lam |s|) exp(-i omega_l s) in the time
    domain; it is neither cut off in frequency nor restricted to omega > 0.
    The +-1 toggling function (the same for CPMG and XY16) is constant on
    segments of length tau with half-length end segments, so the double
    time integral reduces to per-segment integrals and finite geometric
    sums in r = -exp(-(lam + i omega_l) tau). ``tau`` and ``lam`` broadcast.
    """
    if n_pulses <= 0:
        raise ValueError("pulse count must be > 0")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("pulse spacing must be > 0")
    z = np.asarray(lam, dtype=float) + 1j * omega_l
    m = n_pulses - 1  # full-length middle segments
    zt = z * tau
    # 1 - exp(-z dt) for the half and full segments
    h_half = -np.expm1(-zt / 2)
    h_full = -np.expm1(-zt)
    r = -np.exp(-zt)
    r_m = (-1.0) ** m * np.exp(-zt * m)
    one_r = 1.0 - r
    # sum_{j<m} r^j and sum_{j<m-1} (m-1-j) r^j
    g1 = (1.0 - r_m) / one_r
    g2 = ((m - 1) * one_r - r + r_m) / one_r**2
    # same-segment integrals, then the segment pairs k > l whose signs and
    # gap (k - l - 1) tau give the weight -r^(k-l-1)
    diag = 2 * (zt / 2 - h_half) + m * (zt - h_full)
    cross = h_full**2 * g2 + 2 * h_full * h_half * g1 + h_half**2 * r_m
    return 2.0 * ((diag - cross) / z**2).real


def proton_signal_coherence(
    model: ProtonBathModel,
    n_pulses: int,
    taus,
    b0: float,
    gamma_e: float = GAMMA_E,
) -> np.ndarray:
    """Coherence C(tau) of the NV under an N-pulse train near the proton
    Larmor frequency at the measurement field ``b0`` (T)."""
    taus = np.asarray(taus, dtype=float)
    brms2 = b_rms_squared(model)
    omega_l = abs(model.gamma_n) * b0
    lam = model.linewidth
    k_vals = _overlap_k(n_pulses, taus, omega_l, lam)
    return np.exp(-(2 / np.pi**2) * gamma_e**2 * brms2 * k_vals)


_DATASET_HEADER = "tau_s,coherence,sigma"


@dataclass
class DepthDataset:
    """One proton-NMR depth measurement: dip versus pulse spacing."""

    taus: np.ndarray
    coherence: np.ndarray
    sigma: np.ndarray
    n_pulses: int
    b0: float  # measurement field, T
    sample: str = "glycerine"
    rho: float = RHO_GLYCERINE
    family: str = "XY16"

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.coherence = np.asarray(self.coherence, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if not (len(self.taus) == len(self.coherence) == len(self.sigma)):
            raise ValueError("taus, coherence, sigma must have equal length")
        if not all(np.isfinite(a).all() for a in (self.taus, self.coherence, self.sigma)):
            raise ValueError("taus, coherence, sigma must be finite")
        if np.any(np.diff(self.taus) <= 0):
            raise ValueError("tau grid must be strictly increasing")

    def to_csv(self) -> str:
        return write_table(_DATASET_HEADER, self.taus, self.coherence, self.sigma)

    def sidecar(self) -> str:
        return json.dumps(
            {
                "sequence": self.family,
                "N": self.n_pulses,
                "b0_tesla": self.b0,
                "sample": self.sample,
                "rho_per_nm3": self.rho / 1e27,
            },
            sort_keys=True,
        )

    @classmethod
    def from_csv(cls, text: str, sidecar: str) -> "DepthDataset":
        t, c, s = read_table(text, _DATASET_HEADER)
        meta = json.loads(sidecar)
        return cls(
            t,
            c,
            s,
            n_pulses=int(meta["N"]),
            b0=float(meta["b0_tesla"]),
            sample=meta.get("sample", "glycerine"),
            rho=float(meta["rho_per_nm3"]) * 1e27,
            family=meta.get("sequence", "XY16"),
        )


@dataclass
class DepthFit:
    d_nv: float
    d_nv_sigma: float
    linewidth: float
    linewidth_sigma: float
    covariance: np.ndarray


def fit_depth(
    data: DepthDataset,
    rho: float | None = None,
    gamma_n: float = GAMMA_H,
) -> DepthFit:
    """Nonlinear least squares over the NV depth and the proton linewidth.

    ``rho`` defaults to the dataset's sample density. The depth enters only
    through rho / d^3 (times the line overlap), so a wrong density shifts
    the fitted depth by the corresponding cube-root factor.
    """
    if np.min(data.coherence) >= 0.95:
        raise NumericalError("no visible dip (min coherence >= 0.95)")
    rho = data.rho if rho is None else rho
    omega_l = abs(gamma_n) * data.b0
    taus = data.taus
    c_obs = data.coherence
    weights = 1.0 / data.sigma if np.all(data.sigma > 0) else np.ones_like(taus)

    # C = exp(-q K(lambda, tau)) with q = (2/pi^2) gamma_e^2 B_RMS^2; the
    # depth enters only through q (as rho / d^3), so the problem splits into
    # an outer 1-D search over the linewidth and an inner 1-D amplitude fit
    def amplitude_cost(k):
        logc = -np.log(np.clip(c_obs, 1e-6, None))
        denom = float(np.sum(weights**2 * k**2))
        q0 = max(float(np.sum(weights**2 * k * logc)) / denom, 0.0)
        res = minimize_scalar(
            lambda q: float(np.sum((weights * (np.exp(-q * k) - c_obs)) ** 2)),
            bounds=(0.0, 50.0 * max(q0, 1e-12)),
            method="bounded",
        )
        return float(res.x), float(res.fun)

    lam_grid = np.geomspace(1e3, 1e7, 25)
    k_scan = _overlap_k(data.n_pulses, taus, omega_l, lam_grid[:, None])
    scans = [amplitude_cost(k) for k in k_scan]
    i_best = int(np.argmin([cost for _, cost in scans]))
    q_best = scans[i_best][0]
    lam_best = float(lam_grid[i_best])
    unit = ProtonBathModel(rho=rho, d_nv=1e-9, gamma_n=gamma_n)
    q_per_d3 = (2 / np.pi**2) * GAMMA_E**2 * b_rms_squared(unit) * (1e-9) ** 3
    if q_best <= 0:
        raise NumericalError("dip amplitude fitted to zero")
    d_best = float((q_per_d3 / q_best) ** (1 / 3))

    def model_log(tau, d_nv, log_lam):
        q = q_per_d3 / d_nv**3
        return np.exp(-q * _overlap_k(data.n_pulses, tau, omega_l, np.exp(log_lam)))

    # a singular covariance is reported by the check below, not as a warning
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, pcov = curve_fit(
                model_log,
                taus,
                c_obs,
                p0=(d_best, np.log(lam_best)),
                sigma=data.sigma if np.all(data.sigma > 0) else None,
                bounds=([1e-9, np.log(1e3)], [500e-9, np.log(1e7)]),
                maxfev=400,
            )
    except RuntimeError as exc:
        raise NumericalError("depth fit polish did not converge") from exc
    if not np.all(np.isfinite(pcov)):
        raise NumericalError(
            f"depth fit covariance is not finite; {len(taus)} scan point(s) "
            "cannot constrain the depth and the linewidth"
        )
    lam = float(np.exp(popt[1]))
    return DepthFit(
        d_nv=float(popt[0]),
        d_nv_sigma=float(np.sqrt(pcov[0, 0])),
        linewidth=lam,
        linewidth_sigma=float(lam * np.sqrt(pcov[1, 1])),
        covariance=pcov,
    )
