import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvsense.grape import (
    EnsembleMember,
    GrapeProblem,
    Waveform,
    fidelity,
    grape_gradient,
    optimize,
    rotation_target,
)
from nvsense.tables import read_table
from oracles import propagate

DT = 25e-9


def _singleton_problem(target, n_pieces=4, max_rabi=10e6):
    return GrapeProblem(
        target=target,
        n_pieces=n_pieces,
        piece_duration=DT,
        max_rabi_hz=max_rabi,
        ensemble=(EnsembleMember(0.0, 1.0, 1.0),),
    )


def test_fidelity_exact_target_is_one():
    # rectangular pi pulse: Omega * t_total = 1/2
    n = 4
    omega = 1.0 / (2 * n * DT)
    prob = _singleton_problem(rotation_target(np.pi), n_pieces=n)
    wf = Waveform(np.full(n, omega), np.zeros(n), DT)
    assert fidelity(prob, wf) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("axis", ["z", "X", ""])
def test_rotation_target_rejects_unknown_axis(axis):
    with pytest.raises(ValueError, match="rotation axis must be 'x' or 'y'"):
        rotation_target(np.pi, axis)


@pytest.mark.parametrize("axis, sigma", [("x", [[0, 1], [1, 0]]), ("y", [[0, -1j], [1j, 0]])])
def test_rotation_target_matches_expm(axis, sigma):
    # the closed form against the matrix exponential it replaces
    from scipy.linalg import expm

    sigma = np.array(sigma, dtype=complex)
    for angle in np.linspace(-4 * np.pi, 4 * np.pi, 1001):
        np.testing.assert_allclose(
            rotation_target(angle, axis), expm(-0.5j * angle * sigma), rtol=0, atol=1e-15
        )


def test_rotation_target_loads_no_scipy():
    code = (
        "import sys; from nvsense.grape import rotation_target; "
        "rotation_target(1.0, 'y'); print('scipy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "target",
    [
        1.001 * np.eye(2),
        np.eye(3),
        np.full((2, 2), np.nan),
        np.array([[1, 1e-6], [0, 1]], dtype=complex),
    ],
    ids=["scaled", "3x3", "nan", "sheared"],
)
def test_target_that_is_not_a_unitary_rejected(target):
    # |Tr(T^dag U)|^2 / 4 is a fidelity in [0, 1] only for a unitary T
    with pytest.raises(ValueError, match="target must be a 2x2 unitary"):
        _singleton_problem(target)


def test_fidelity_orthogonal_case():
    prob = _singleton_problem(rotation_target(np.pi))
    wf = Waveform(np.zeros(4), np.zeros(4), DT)
    # identity vs pi rotation: |Tr(target^dag I)|^2 / 4 = 0
    assert fidelity(prob, wf) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_matches_propagate_oracle():
    # hand-built 2-piece composite checked against the expm propagation
    # oracle, for a resonant singleton, the default detuning ensemble, and an
    # ensemble with a mis-scaled amplitude
    wf = Waveform(np.array([3e6, -1e6]), np.array([2e6, 4e6]), DT)
    default = GrapeProblem(rotation_target(np.pi / 2), 2, DT, 10e6).ensemble
    ensembles = (
        (EnsembleMember(0.0, 1.0, 1.0),),
        default,
        default[:2] + (EnsembleMember(-0.8e6, 0.9, 0.25),),
    )
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    for ensemble in ensembles:
        prob = GrapeProblem(rotation_target(np.pi / 2), 2, DT, 10e6, ensemble)
        f_oracle = 0.0
        for m in ensemble:
            h_pieces = [
                np.pi * m.amplitude_scale * wf.real_rabi_hz[k] * sx
                + np.pi * m.amplitude_scale * wf.imag_rabi_hz[k] * sy
                + np.pi * m.detuning_hz * sz
                for k in range(2)
            ]
            u = propagate(h_pieces, DT)
            f_oracle += m.weight * abs(np.trace(prob.target.conj().T @ u)) ** 2 / 4
        assert fidelity(prob, wf) == pytest.approx(f_oracle, abs=1e-12)


def test_waveform_mismatch_rejected():
    prob = _singleton_problem(rotation_target(np.pi), n_pieces=4)
    with pytest.raises(ValueError):
        fidelity(prob, Waveform(np.zeros(3), np.zeros(3), DT))


def test_ensemble_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        GrapeProblem(
            target=rotation_target(np.pi),
            n_pieces=2,
            piece_duration=DT,
            max_rabi_hz=1e6,
            ensemble=(EnsembleMember(0.0, 1.0, 0.7),),
        )


def _fd_gradient(prob, wf, step):
    gre = np.zeros(wf.n_pieces)
    gim = np.zeros(wf.n_pieces)
    for k in range(wf.n_pieces):
        for arr, grad in ((wf.real_rabi_hz, gre), (wf.imag_rabi_hz, gim)):
            orig = arr[k]
            arr[k] = orig + step
            fp = fidelity(prob, wf)
            arr[k] = orig - step
            fm = fidelity(prob, wf)
            arr[k] = orig
            grad[k] = (fp - fm) / (2 * step)
    return gre, gim


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    prob = GrapeProblem(
        target=rotation_target(np.pi),
        n_pieces=n,
        piece_duration=DT,
        max_rabi_hz=10e6,
    )
    wf = Waveform(rng.uniform(-8e6, 8e6, n), rng.uniform(-8e6, 8e6, n), DT)
    gre, gim = grape_gradient(prob, wf)
    fre, fim = _fd_gradient(prob, wf, 1e-6 * prob.max_rabi_hz)
    scale = max(np.abs(np.concatenate([fre, fim])).max(), 1e-12)
    np.testing.assert_allclose(gre, fre, atol=1e-5 * scale, rtol=1e-5)
    np.testing.assert_allclose(gim, fim, atol=1e-5 * scale, rtol=1e-5)


def test_gradient_at_zero_drive_matches_finite_differences():
    # the resonant member's Pauli vector is zero on every piece here, and
    # one detuned member sees a mis-scaled amplitude
    default = GrapeProblem(rotation_target(np.pi / 2), 3, DT, 10e6).ensemble
    prob = GrapeProblem(
        target=rotation_target(np.pi / 2),
        n_pieces=3,
        piece_duration=DT,
        max_rabi_hz=10e6,
        ensemble=default[:2] + (EnsembleMember(default[2].detuning_hz, 0.9, 0.25),),
    )
    wf = Waveform(np.zeros(3), np.zeros(3), DT)
    gre, gim = grape_gradient(prob, wf)
    fre, fim = _fd_gradient(prob, wf, 1e-6 * prob.max_rabi_hz)
    scale = np.abs(np.concatenate([fre, fim])).max()
    assert scale > 0
    np.testing.assert_allclose(gre, fre, atol=1e-5 * scale, rtol=1e-5)
    np.testing.assert_allclose(gim, fim, atol=1e-5 * scale, rtol=1e-5)


def test_gradient_antisymmetry_for_symmetric_problem():
    # constant drive, symmetric target: real-part gradient is symmetric in
    # piece index, so antisymmetric combinations vanish
    n = 6
    prob = _singleton_problem(rotation_target(np.pi), n_pieces=n)
    wf = Waveform(np.full(n, 1.5e6), np.zeros(n), DT)
    gre, gim = grape_gradient(prob, wf)
    np.testing.assert_allclose(gre, gre[::-1], atol=1e-18)
    np.testing.assert_allclose(gim, 0.0, atol=1e-18)


def test_gradient_vanishes_at_optimum():
    n = 4
    omega = 1.0 / (2 * n * DT)
    prob = _singleton_problem(rotation_target(np.pi), n_pieces=n)
    wf = Waveform(np.full(n, omega), np.zeros(n), DT)
    gre, gim = grape_gradient(prob, wf)
    interior_scale = 1.0 / omega  # gradient scale ~ 1/Omega near optimum
    assert np.max(np.abs(np.concatenate([gre, gim]))) <= 1e-6 * interior_scale


def test_optimize_single_piece_recovers_rect_pi_pulse():
    dt = 100e-9
    prob = GrapeProblem(
        target=rotation_target(np.pi),
        n_pieces=1,
        piece_duration=dt,
        max_rabi_hz=10e6,
        ensemble=(EnsembleMember(0.0, 1.0, 1.0),),
    )
    res = optimize(prob, seed=1, target_infidelity=1e-10)
    amp = res.waveform.amplitudes[0]
    assert amp == pytest.approx(1.0 / (2 * dt), rel=1e-3)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("angle, n_pieces", [(np.pi, 10), (np.pi / 2, 14)])
def test_optimize_converges_on_criterion7_problems(angle, n_pieces, seed):
    prob = GrapeProblem(
        target=rotation_target(angle, "x"),
        n_pieces=n_pieces,
        piece_duration=DT,
        max_rabi_hz=20e6,
    )
    res = optimize(prob, seed=seed, target_infidelity=5e-5)
    assert res.converged
    assert fidelity(prob, res.waveform) >= 1.0 - 5e-5
    assert np.all(res.waveform.amplitudes <= prob.max_rabi_hz * (1 + 1e-12))


def test_optimize_monotone_trace_and_determinism():
    prob = GrapeProblem(
        target=rotation_target(np.pi),
        n_pieces=6,
        piece_duration=DT,
        max_rabi_hz=10e6,
    )
    res = optimize(prob, seed=42, max_iterations=300)
    assert np.all(np.diff(res.trace) >= 0)
    res2 = optimize(prob, seed=42, max_iterations=300)
    np.testing.assert_array_equal(res.waveform.real_rabi_hz, res2.waveform.real_rabi_hz)
    np.testing.assert_array_equal(res.waveform.imag_rabi_hz, res2.waveform.imag_rabi_hz)


def test_optimize_respects_amplitude_bound():
    prob = GrapeProblem(
        target=rotation_target(np.pi),
        n_pieces=6,
        piece_duration=DT,
        max_rabi_hz=2.5e6,
    )
    res = optimize(prob, seed=0, max_iterations=300)
    assert np.all(res.waveform.amplitudes <= prob.max_rabi_hz * (1 + 1e-12))


def test_optimize_infeasible_returns_best_effort():
    # amplitude bound far too small for a pi rotation in the allotted time
    prob = GrapeProblem(
        target=rotation_target(np.pi),
        n_pieces=4,
        piece_duration=DT,
        max_rabi_hz=1e4,
    )
    res = optimize(prob, seed=0, max_iterations=50, n_restarts=0)
    assert not res.converged
    assert 0.0 <= res.fidelity < 0.99


def test_global_phase_invariance():
    prob = _singleton_problem(rotation_target(np.pi), n_pieces=3)
    wf = Waveform(np.array([2e6, 1e6, 3e6]), np.array([0.5e6, -1e6, 0.0]), DT)
    f0 = fidelity(prob, wf)
    # rotating every piece by a common phase conjugates the gate by sigma_z
    # rotations; |Tr| fidelity against a +-x target is unchanged only for
    # phase-symmetric targets, so check against the global-phase-shifted target
    phi = 0.73
    c, s = np.cos(phi), np.sin(phi)
    wf_rot = Waveform(
        c * wf.real_rabi_hz - s * wf.imag_rabi_hz,
        s * wf.real_rabi_hz + c * wf.imag_rabi_hz,
        DT,
    )
    rz = np.diag(np.exp([-0.5j * phi, 0.5j * phi]))
    prob_rot = _singleton_problem(rz @ prob.target @ rz.conj().T, n_pieces=3)
    assert fidelity(prob_rot, wf_rot) == pytest.approx(f0, abs=1e-12)


def test_waveform_csv_roundtrip_bit_exact():
    rng = np.random.default_rng(9)
    wf = Waveform(rng.normal(size=7) * 1e6, rng.normal(size=7) * 1e6, 25e-9)
    comment, table = wf.to_csv().split("\n", 1)
    index, re, im = read_table(table, "piece_index,real_rabi_hz,imag_rabi_hz")
    np.testing.assert_array_equal(index, np.arange(7))
    np.testing.assert_array_equal(re, wf.real_rabi_hz)
    np.testing.assert_array_equal(im, wf.imag_rabi_hz)
    assert comment == "# piece_duration_s=2.5e-08"
