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

The exports below load their module on first access, so ``import nvsense``
loads no numpy; that lets the CLI set numpy's BLAS threading first.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it (PEP 562 ``__getattr__`` below)
_EXPORTS = {
    name: module
    for module, names in {
        "depth": "DepthDataset DepthFit ProtonBathModel fit_depth",
        "grape": "GrapeProblem Waveform optimize rotation_target",
        "noisespec": "NoiseSpectrum fit_lorentzian reconstruct_spectrum",
        "protocol": "ProtocolConfig nv3_config run_experiment",
        "sensitivity": "SensitivityBudget erl_compute eta_from_budget fit_fringe "
        "sensitivity_from_timeseries",
        "sequences": "CoherenceCurve DDSequence",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
