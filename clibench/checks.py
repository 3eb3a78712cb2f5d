"""Output checks for the three benchmark workloads.

Every expected figure is computed here from the physics, with numpy and
literal constants only; nothing is imported from ``nvsense``. Each check
returns a list of problems, empty when the outputs are correct.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# CODATA 2018, the values scipy.constants carries
MU_0 = 1.25663706212e-6  # T m / A
HBAR = 1.054571817e-34  # J s
GAMMA_E = 2.0 * math.pi * 28.024e9  # rad / (s T)
A_PARALLEL_HZ = 3.03e6

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# ---------------------------------------------------------------- pulse design

MAX_RABI_HZ = 20e6
PIECE_S = 25e-9
TARGET_INFIDELITY = 5e-5
SUMMARY_AGREEMENT = 1e-9
# robustness ensemble: (detuning Hz, weight), the two 15N subspaces at +-A/2
ENSEMBLE = ((0.0, 0.5), (A_PARALLEL_HZ / 2, 0.25), (-A_PARALLEL_HZ / 2, 0.25))


def read_waveform(text: str):
    """(real Hz, imag Hz, piece duration s) from a ``waveform.csv``."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# piece_duration_s="):
        raise ValueError("waveform.csv lacks its piece_duration_s header")
    dt = float(lines[0].split("=", 1)[1])
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    return rows[:, 1], rows[:, 2], dt


def gate_fidelity(re, im, dt, angle) -> float:
    """sum_w w |Tr(U_target^dag U)|^2 / 4 over the detuning ensemble.

    U is propagated piece by piece as exp(-i dt pi (re sx + im sy + d sz)),
    each piece exponentiated through its eigendecomposition.
    """
    target = math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * PAULI[0]
    total = 0.0
    for detuning, weight in ENSEMBLE:
        u = np.eye(2, dtype=complex)
        for r, i in zip(re, im):
            h = math.pi * (r * PAULI[0] + i * PAULI[1] + detuning * PAULI[2])
            vals, vecs = np.linalg.eigh(h)
            u = (vecs * np.exp(-1j * dt * vals)) @ vecs.conj().T @ u
        total += weight * abs(np.trace(target.conj().T @ u)) ** 2 / 4.0
    return float(total)


def check_pulse(out_dir, angle: float, n_pieces: int) -> list:
    """waveform.csv meets the target and agrees with grape_summary.json."""
    out_dir = Path(out_dir)
    problems = []
    re, im, dt = read_waveform((out_dir / "waveform.csv").read_text())
    summary = json.loads((out_dir / "grape_summary.json").read_text())
    if len(re) != n_pieces or dt != PIECE_S:
        return [f"{out_dir}: {len(re)} pieces of {dt} s, expected {n_pieces} of {PIECE_S}"]
    amp = np.hypot(re, im)
    if np.max(amp) > MAX_RABI_HZ * (1 + 1e-12):
        problems.append(f"{out_dir}: |Omega| reaches {np.max(amp):.9g} Hz > 20 MHz")
    fid = gate_fidelity(re, im, dt, angle)
    if fid < 1.0 - TARGET_INFIDELITY:
        problems.append(f"{out_dir}: recomputed fidelity {fid!r} < 1 - 5e-5")
    for key in ("fidelity", "verified_fidelity"):
        if abs(fid - summary[key]) > SUMMARY_AGREEMENT:
            problems.append(
                f"{out_dir}: recomputed fidelity {fid!r} differs from "
                f"grape_summary {key} {summary[key]!r}"
            )
    return problems


# ---------------------------------------------------------------- spectroscopy

SPECTRUM_RTOL = 0.10
# the six synthetic emitters: (depth nm, quoted error nm)
DEPTH_SUITE = ((17.3, 1.0), (26.3, 0.7), (31.7, 1.1), (49.0, 1.0), (64.3, 2.0), (80.3, 3.0))


def depth_stem(depth_nm: float) -> str:
    """File stem ``gen depth --suite`` gives the scan at ``depth_nm``."""
    return f"depth_{depth_nm:.1f}nm".replace(".", "p")


def erl_noise_line(l_eff: float) -> float:
    """2 mu0 hbar / (e l^3), the noise density at the energy resolution limit."""
    return 2.0 * MU_0 * HBAR / (math.e * l_eff**3)


def model_spectrum(omega):
    """The generating model: a centered Lorentzian of 8e-19 T^2/Hz with
    HWHM 2 pi 120 kHz over a floor 21.6 dB below the ERL line at 31.7 nm."""
    width = 2 * math.pi * 120e3
    floor = erl_noise_line(31.7e-9) / 10 ** (21.6 / 10)
    omega = np.asarray(omega, dtype=float)
    return 8e-19 * width**2 / (width**2 + omega**2) + floor


def check_spectrum(out_dir) -> list:
    """spectrum.csv within 10% of the model wherever 3 omega is on the grid."""
    rows = np.loadtxt(Path(out_dir) / "spectrum.csv", delimiter=",", skiprows=1, ndmin=2)
    omega, s = rows[:, 0], rows[:, 1]
    inside = 3 * omega <= omega[-1]
    if np.count_nonzero(inside) < 4:
        return [f"{out_dir}: only {np.count_nonzero(inside)} bands have their third harmonic on the grid"]
    dev = s[inside] / model_spectrum(omega[inside]) - 1.0
    return [
        f"{out_dir}: S({w:.6g} rad/s) is {d:+.1%} off the model"
        for w, d in zip(omega[inside], dev)
        if abs(d) > SPECTRUM_RTOL
    ]


def check_depth(out_dir, depth_nm: float, tol_nm: float) -> list:
    """The fitted depth lies within its quoted error of the generated one."""
    report = json.loads((Path(out_dir) / "depth_report.json").read_text())
    fitted = report["d_nv_m"] * 1e9
    if abs(fitted - depth_nm) > tol_nm:
        return [f"{out_dir}: fitted {fitted:.3f} nm, generated {depth_nm} +- {tol_nm} nm"]
    return []


# ---------------------------------------------------------------- sensing run

ETA_RTOL = 0.15
SLOPE_MAX = 0.05
B_V_T_PER_V = 112e-9
B_V_RTOL = 0.02
RERUN_MESSAGE = "outputs reproduced byte-identically"


def budget_eta() -> float:
    """eta = 1/(gamma_e sqrt(T_C)) / (C F_r F_i) sqrt(1 + T_ir/T_C) with the
    paper's budget: T_C 1.8 ms, C from T2 = 2 ms and exponent 1.5,
    F_i 0.92, F_r 0.84, 3.336 ms per shot."""
    t_c, t_shot = 1.8e-3, 3.336e-3
    c = math.exp(-((t_c / 2.0e-3) ** 1.5))
    return (
        1.0 / (GAMMA_E * math.sqrt(t_c)) / (c * 0.84 * 0.92)
        * math.sqrt(1.0 + (t_shot - t_c) / t_c)
    )


def eta_slope(times, eta) -> float:
    """Log-log slope of eta(t) over the last decade of averaging time."""
    last = times >= times[-1] / 10.0
    return float(np.polyfit(np.log(times[last]), np.log(eta[last]), 1)[0])


def count_rows(path) -> int:
    """Data rows of a CSV file with one header line."""
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def check_sense(out_dir, n_shots: int) -> list:
    """Sensitivity, its averaging law, the fringe fit and the shot table."""
    out_dir = Path(out_dir)
    problems = []
    budget = json.loads((out_dir / "budget.json").read_text())
    eta, expected = budget["eta_asymptote_t_per_sqrt_hz"], budget_eta()
    if abs(eta / expected - 1.0) > ETA_RTOL:
        problems.append(
            f"eta asymptote {eta * 1e9:.4f} nT/sqrt(Hz) is more than 15% off "
            f"the budget's {expected * 1e9:.4f}"
        )
    curve = np.loadtxt(out_dir / "eta_vs_time.csv", delimiter=",", skiprows=1, ndmin=2)
    slope = eta_slope(curve[:, 0], curve[:, 1])
    if abs(slope) > SLOPE_MAX:
        problems.append(f"eta(t) log-slope {slope:+.4f} over the last decade exceeds 0.05")
    b_v = budget["fitted_b_v_t_per_v"]
    if abs(b_v / B_V_T_PER_V - 1.0) > B_V_RTOL:
        problems.append(f"fitted B_V {b_v * 1e9:.3f} nT/V is more than 2% off 112 nT/V")
    rows = count_rows(out_dir / "shots.csv")
    if rows != n_shots:
        problems.append(f"shots.csv holds {rows} rows, configured {n_shots}")
    return problems


def digests(out_dir) -> dict:
    """SHA-256 of every file in ``out_dir`` except the manifest itself."""
    if not Path(out_dir).is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def check_rerun(before: dict, after: dict, stdout: str) -> list:
    """``rerun`` reproduced every output byte for byte and said so."""
    problems = []
    if RERUN_MESSAGE not in stdout:
        problems.append("rerun did not report byte-identical outputs")
    changed = sorted(set(before) ^ set(after) | {k for k in before if after.get(k) != before[k]})
    if changed:
        problems.append("rerun changed " + ", ".join(changed))
    return problems
