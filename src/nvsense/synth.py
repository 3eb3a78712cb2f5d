"""Synthetic dataset generators.

These produce the bundles used by the test suite and the ``gen``
subcommand: proton-NMR depth scans, coherence-decay families for noise
spectroscopy, and fringe/sensitivity runs via the protocol simulator. All
generators are deterministic given a seed.
"""

import numpy as np

from .constants import GAMMA_H
from .depth import RHO_GLYCERINE, DepthDataset, ProtonBathModel, proton_signal_coherence
from .noisespec import erl_noise_line
from .sequences import CoherenceCurve, DDSequence, coherence_from_spectrum

# depth-measurement field and the matching half-Larmor-period pulse spacing
DEPTH_B0 = 0.035  # T
TAU_LARMOR = np.pi / (GAMMA_H * DEPTH_B0)

# proton-line parameters shared by all synthetic depth scans
DEPTH_T2N_STAR = 5e-5  # s
DEPTH_DIFFUSION = 3e-13  # m^2/s

# (depth m, pulse count, quoted 1-sigma m) for the six characterized
# emitters; pulse counts scale roughly with d^3 so every dip bottoms out
# near C ~ 0.5-0.7
DEPTH_SUITE = (
    (17.3e-9, 1024, 1.0e-9),
    (26.3e-9, 2048, 0.7e-9),
    (31.7e-9, 4096, 1.1e-9),
    (49.0e-9, 16384, 1.0e-9),
    (64.3e-9, 32768, 2.0e-9),
    (80.3e-9, 65536, 3.0e-9),
)

# each synthetic coherence curve puts POINTS_PER_N passband centers
# f0 = N / (2 T), log-spaced, on [F0_LO, F0_HI] Hz
F0_LO, F0_HI, POINTS_PER_N = 40e3, 2e6, 12


def make_depth_dataset(
    depth: float,
    n_pulses: int,
    noise: float = 0.0,
    seed: int = 0,
    rho: float = RHO_GLYCERINE,
    n_tau: int = 41,
) -> DepthDataset:
    """Proton-NMR dip scan across 0.8-1.2 of the half Larmor period."""
    model = ProtonBathModel(
        rho=rho,
        d_nv=depth,
        t2n_star=DEPTH_T2N_STAR,
        diffusion=DEPTH_DIFFUSION,
    )
    taus = np.linspace(0.8 * TAU_LARMOR, 1.2 * TAU_LARMOR, n_tau)
    c = proton_signal_coherence(model, n_pulses, taus, DEPTH_B0)
    if noise:
        rng = np.random.default_rng(seed)
        c = np.clip(c + rng.normal(0.0, noise, len(c)), 0.0, 1.05)
    return DepthDataset(
        taus,
        c,
        np.full(len(taus), max(noise, 1e-3)),
        n_pulses,
        DEPTH_B0,
        rho=rho,
    )


def make_depth_suite(noise: float = 0.005, seed: int = 10):
    """The six-depth synthetic suite; yields (dataset, depth, quoted sigma)."""
    out = []
    for i, (depth, n_pulses, tol) in enumerate(DEPTH_SUITE):
        data = make_depth_dataset(depth, n_pulses, noise=noise, seed=seed + i)
        out.append((data, depth, tol))
    return out


def lorentzian_spectrum(s_max: float, width: float, floor: float = 0.0):
    """Centered Lorentzian S(w) = s_max W^2/(W^2+w^2) plus a flat floor."""

    def spectrum(w):
        w = np.asarray(w, dtype=float)
        return s_max * width**2 / (width**2 + w**2) + floor

    return spectrum


def nv3_floor_spectrum(db_below: float = 21.6, l_eff: float = 31.7e-9):
    """Lorentzian surface noise over a flat floor calibrated a fixed number
    of power decibels below the ERL noise line at ``l_eff``."""
    floor = erl_noise_line(l_eff) / 10 ** (db_below / 10.0)
    return lorentzian_spectrum(8e-19, 2 * np.pi * 120e3, floor)


def make_coherence_family(
    spectrum,
    n_list=(16, 64, 128, 512),
    family: str = "XY16",
    noise: float = 0.0,
    seed: int = 0,
    k_max: int = 20000,
):
    """Coherence-versus-time curves for a family of pulse trains.

    For each pulse number N the total times sweep the passband center
    f0 = N / (2 T) across [F0_LO, F0_HI]. Returns a list of
    CoherenceCurve, one per N.
    """
    rng = np.random.default_rng(seed)
    f0 = np.geomspace(F0_LO, F0_HI, POINTS_PER_N)
    curves = []
    for n in n_list:
        times = np.sort(n / (2.0 * f0))
        cs = np.array(
            [
                coherence_from_spectrum(
                    spectrum, DDSequence(family, n, t), k_max=k_max
                )
                for t in times
            ]
        )
        if noise:
            cs = np.clip(cs + rng.normal(0.0, noise, len(cs)), 0.0, 1.05)
        curves.append(
            CoherenceCurve(
                times,
                cs,
                np.full(len(times), max(noise, 1e-3)),
                family=family,
                n_pulses=n,
            )
        )
    return curves
