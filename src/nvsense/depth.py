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

from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_E, GAMMA_H, HBAR, MU_0
from .errors import NumericalError, as_float, as_int, least_squares
from .sequences import check_train
from .tables import Scan

# proton number densities (m^-3)
RHO_GLYCERINE = 66e27
RHO_IMMERSION_OIL = 69.5e27


@dataclass(frozen=True)
class ProtonBathModel:
    """Proton bath above the diamond plus the NV depth below a [100] surface."""

    rho: float  # m^-3
    d_nv: float  # m
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
    """Mean-square proton field rho (mu0 hbar gamma_H / 4pi)^2 (5pi / 96 d^3)."""
    dipole = MU_0 * HBAR * GAMMA_H / (4 * np.pi)
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
) -> np.ndarray:
    """Coherence C(tau) of the NV under an N-pulse train near the proton
    Larmor frequency at the measurement field ``b0`` (T)."""
    taus = np.asarray(taus, dtype=float)
    brms2 = b_rms_squared(model)
    omega_l = GAMMA_H * b0
    lam = model.linewidth
    k_vals = _overlap_k(n_pulses, taus, omega_l, lam)
    return np.exp(-(2 / np.pi**2) * GAMMA_E**2 * brms2 * k_vals)


@dataclass
class DepthDataset(Scan):
    """One proton-NMR depth measurement, dip versus pulse spacing: a
    ``tables.Scan`` whose sidecar holds the pulse train (``sequence`` and
    ``N``, a pair ``sequences.check_train`` takes), the field, the ``sample``
    name and its proton density."""

    taus: np.ndarray
    coherence: np.ndarray
    sigma: np.ndarray
    n_pulses: int
    b0: float  # measurement field, T
    sample: str = "glycerine"
    rho: float = RHO_GLYCERINE
    family: str = "XY16"

    HEADER = "tau_s,coherence,sigma"
    GRID = "tau grid"

    def _meta(self) -> dict:
        return {
            "sequence": self.family,
            "N": self.n_pulses,
            "b0_tesla": self.b0,
            "sample": self.sample,
            "rho_per_nm3": self.rho / 1e27,
        }

    @staticmethod
    def _fields(meta) -> dict:
        fields = dict(
            n_pulses=as_int(meta["N"], "N"),
            b0=as_float(meta["b0_tesla"], "b0_tesla"),
            sample=meta.get("sample", "glycerine"),
            rho=as_float(meta["rho_per_nm3"], "rho_per_nm3") * 1e27,
            family=meta.get("sequence", "XY16"),
        )
        check_train(fields["family"], fields["n_pulses"])
        if not isinstance(fields["sample"], str):
            raise ValueError(f"sample must be a string, got {fields['sample']!r}")
        return fields


@dataclass
class DepthFit:
    d_nv: float
    d_nv_sigma: float
    linewidth: float
    linewidth_sigma: float


def fit_depth(data: DepthDataset) -> DepthFit:
    """Nonlinear least squares over the NV depth and the proton linewidth.

    The depth enters only through rho / d^3 (times the line overlap), so a
    wrong sample density shifts the fitted depth by the corresponding
    cube-root factor. A fit that ends within 1e-6 (relative) of a bound, or
    whose depth sigma is not below the depth, is refused.
    """
    if np.min(data.coherence) >= 0.95:
        raise NumericalError("no visible dip (min coherence >= 0.95)")
    omega_l = GAMMA_H * data.b0
    taus = data.taus
    c_obs = data.coherence
    weights = 1.0 / data.sigma if np.all(data.sigma > 0) else np.ones_like(taus)

    # bounds on (depth in nm, linewidth in rad/s). The polish works in nm and
    # log rad/s, both of order 10: its finite-difference steps (relative to a
    # parameter, but never below ~1.5e-8) and its step tolerance (relative to
    # the parameter vector's norm) then suit both
    lo, hi = np.array([1.0, 1e3]), np.array([500.0, 1e7])
    lam_grid = np.geomspace(lo[1], hi[1], 25)
    k_scan = _overlap_k(data.n_pulses, taus, omega_l, lam_grid[:, None])
    # C = exp(-q K(lambda, tau)) with q = (2/pi^2) gamma_e^2 B_RMS^2; the
    # depth enters only through q (as rho / d^3), so the start is a scan over
    # the linewidth, each point with the q that fits -log C = q K by weighted
    # least squares in closed form; the polish below refines both
    w2, logc = weights**2, -np.log(np.clip(c_obs, 1e-6, None))
    q_scan = np.maximum((k_scan * logc) @ w2 / (k_scan**2 @ w2), 0.0)
    cost = (np.exp(-q_scan[:, None] * k_scan) - c_obs) ** 2 @ w2
    i_best = int(np.argmin(cost))
    q_best = float(q_scan[i_best])
    lam_best = float(lam_grid[i_best])
    unit = ProtonBathModel(rho=data.rho, d_nv=1e-9)
    q_per_nm3 = (2 / np.pi**2) * GAMMA_E**2 * b_rms_squared(unit)
    if q_best <= 0:
        raise NumericalError("dip amplitude fitted to zero")
    d_best = float((q_per_nm3 / q_best) ** (1 / 3))

    def model_log(tau, d_nm, log_lam):
        q = q_per_nm3 / d_nm**3
        return np.exp(-q * _overlap_k(data.n_pulses, tau, omega_l, np.exp(log_lam)))

    popt, pcov = least_squares(
        model_log, taus, c_obs, (d_best, np.log(lam_best)),
        ([lo[0], np.log(lo[1])], [hi[0], np.log(hi[1])]), "depth fit",
        sigma=data.sigma if np.all(data.sigma > 0) else None, maxfev=400,
    )
    d_nm, lam = float(popt[0]), float(np.exp(popt[1]))
    d_sigma_nm = float(np.sqrt(pcov[0, 0]))
    # within 1e-6 of a bound, relative to that bound
    fitted = np.array([d_nm, lam])
    if np.any((fitted <= lo * (1 + 1e-6)) | (fitted >= hi * (1 - 1e-6))):
        raise NumericalError(
            f"depth fit ends on a bound: depth {d_nm:.6g} nm (bounds 1-500), "
            f"linewidth {lam:.7g} rad/s (bounds 1e3-1e7)"
        )
    if d_sigma_nm >= d_nm:
        raise NumericalError(
            f"depth fit cannot resolve the depth: "
            f"{d_nm:.2f} +- {d_sigma_nm:.2f} nm"
        )
    return DepthFit(
        d_nv=d_nm * 1e-9,
        d_nv_sigma=d_sigma_nm * 1e-9,
        linewidth=lam,
        linewidth_sigma=float(lam * np.sqrt(pcov[1, 1])),
    )
