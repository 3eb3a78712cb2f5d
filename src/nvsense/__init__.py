"""Modeling, simulation, and analysis toolkit for single-spin magnetometry.

Modules:
    grape        piecewise-constant pulse shaping with ensemble robustness
    sequences    dynamical-decoupling timing, filter functions, coherence
    noisespec    coherence-decay inversion into noise spectra
    depth        emitter depth from statistical proton-NMR signals
    sensitivity  sensitivity budgets and the energy-resolution benchmark
    protocol     Monte Carlo simulation of the full measurement chain
    cli          command-line interface

The reference physics the tests check these against (matrix-exponential
propagation, the exact filter function and quadrature coherence) lives in
``tests/oracles.py``, outside the package.
"""

__version__ = "0.1.0"

from .depth import DepthDataset, DepthFit, ProtonBathModel, fit_depth
from .grape import GrapeProblem, Waveform, optimize, rotation_target
from .noisespec import NoiseSpectrum, fit_lorentzian, reconstruct_spectrum
from .protocol import ProtocolConfig, nv3_config, run_experiment
from .sensitivity import (
    SensitivityBudget,
    erl_compute,
    eta_from_budget,
    fit_fringe,
    sensitivity_from_timeseries,
)
from .sequences import CoherenceCurve, DDSequence

__all__ = [
    "__version__",
    "CoherenceCurve",
    "DDSequence",
    "DepthDataset",
    "DepthFit",
    "GrapeProblem",
    "NoiseSpectrum",
    "ProtocolConfig",
    "ProtonBathModel",
    "SensitivityBudget",
    "Waveform",
    "erl_compute",
    "eta_from_budget",
    "fit_depth",
    "fit_fringe",
    "fit_lorentzian",
    "nv3_config",
    "optimize",
    "reconstruct_spectrum",
    "rotation_target",
    "run_experiment",
    "sensitivity_from_timeseries",
]
