import numpy as np
import pytest

from nvsense.constants import TWO_PI, GAMMA_E
from nvsense.spincore import (
    DriveTerm,
    SpinSystem,
    build_rotating_frame_hamiltonian,
    build_static_hamiltonian,
    propagate,
    spin_operators,
    transition_frequencies,
)


def test_spin_operators_commutator():
    for s in (0.5, 1.0, 1.5):
        sx, sy, sz = spin_operators(s)
        np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)


def test_hilbert_dimension():
    sys = SpinSystem()
    assert sys.dim == 6
    assert SpinSystem(i_nuclear=1.0).dim == 9


def test_static_hamiltonian_diagonal_hermitian():
    h0 = build_static_hamiltonian(SpinSystem())
    np.testing.assert_allclose(h0, h0.conj().T)
    np.testing.assert_allclose(h0, np.diag(np.diag(h0)))


def test_transition_frequencies_defaults():
    # eigen-gaps |0> -> |-1| and |0> -> |+1| at the 7662 G sensing field
    gaps = transition_frequencies(SpinSystem())
    assert gaps["0->-1"] == pytest.approx(18.6e9, rel=1e-3)
    assert gaps["0->+1"] == pytest.approx(24.3e9, rel=2e-3)


def test_zeeman_term_scalar():
    # gamma_e B0 / 2pi = 28.024 GHz/T * 0.7662 T = 21.47 GHz
    sys = SpinSystem()
    assert sys.gamma_e * sys.b0 / TWO_PI == pytest.approx(21.472e9, rel=1e-4)


def test_zero_field_degeneracy():
    sys = SpinSystem(b0=0.0, a_parallel=0.0)
    h0 = build_static_hamiltonian(sys)
    levels = np.real(np.diag(h0))
    # m_s = +-1 degenerate, split from m_s = 0 only by D
    d_rad = TWO_PI * sys.d_zfs
    plus = levels[:2]
    zero = levels[2:4]
    minus = levels[4:]
    np.testing.assert_allclose(plus, minus, atol=1e-3)
    np.testing.assert_allclose(plus - zero, d_rad, rtol=1e-12)


def test_nonfinite_parameter_rejected():
    with pytest.raises(ValueError, match="must be finite"):
        SpinSystem(d_zfs=np.nan)
    with pytest.raises(ValueError, match="b0 must be >= 0"):
        SpinSystem(b0=-1.0)


def _two_level_sys():
    """Small artificial system so lab-frame propagation stays cheap."""
    return SpinSystem(
        s_electron=0.5,
        i_nuclear=0.5,
        gamma_e=TWO_PI * 28.0e9,
        gamma_n_nv=0.0,
        d_zfs=0.0,
        a_parallel=0.0,
        b0=1.0 / 28.0,  # 1 GHz electron splitting
    )


def test_rwa_resonant_drive_is_sigma_x():
    sys = _two_level_sys()
    h0 = build_static_hamiltonian(sys)
    gap_hz = np.real(h0[0, 0] - h0[2, 2]) / TWO_PI
    drive = DriveTerm(
        channel="MW",
        rabi_amplitude_hz=(2e6,),
        carrier_hz=abs(gap_hz),
        phase_rad=(0.0,),
        piece_duration=25e-9,
    )
    h_pieces, dt = build_rotating_frame_hamiltonian(sys, [drive], (2, 0))
    assert dt == 25e-9
    (h,) = h_pieces
    np.testing.assert_allclose(np.diag(h), 0.0, atol=1e-6)
    # off-diagonal = Omega_eff / 2 with the S_x matrix element 1/2
    assert abs(h[0, 1]) == pytest.approx(TWO_PI * 2e6 * 0.5 / 2, rel=1e-12)


def test_rwa_zero_amplitude():
    sys = _two_level_sys()
    h0 = build_static_hamiltonian(sys)
    gap_hz = abs(np.real(h0[0, 0] - h0[2, 2])) / TWO_PI
    drive = DriveTerm(
        channel="MW",
        rabi_amplitude_hz=(0.0, 0.0),
        carrier_hz=gap_hz,
        phase_rad=(0.0, 0.0),
        piece_duration=10e-9,
    )
    h_pieces, _ = build_rotating_frame_hamiltonian(sys, [drive], (2, 0))
    for h in h_pieces:
        np.testing.assert_allclose(h, 0.0, atol=1e-9)


def test_rwa_off_resonant_drive_rejected():
    sys = _two_level_sys()
    drive = DriveTerm(
        channel="MW",
        rabi_amplitude_hz=(1e6,),
        carrier_hz=1.3e9,  # far from the 1 GHz gap
        phase_rad=(0.0,),
        piece_duration=25e-9,
    )
    with pytest.raises(ValueError, match="is not within"):
        build_rotating_frame_hamiltonian(sys, [drive], (2, 0))


def _lab_frame_populations(sys, drive, subspace, initial_idx, n_substeps=4000):
    """Oracle: direct lab-frame propagation with fine time steps."""
    h0 = build_static_hamiltonian(sys)
    sx = sys.electron_operator("x")
    dim = sys.dim
    psi = np.zeros(dim, dtype=complex)
    psi[initial_idx] = 1.0
    w = TWO_PI * drive.carrier_hz
    t = 0.0
    dt = drive.piece_duration / n_substeps
    for p in range(drive.n_pieces):
        omega = TWO_PI * drive.rabi_amplitude_hz[p]
        phi = drive.phase_rad[p]
        for _ in range(n_substeps):
            tm = t + dt / 2
            h = h0 + omega * np.cos(w * tm + phi) * sx
            psi = propagate([h], dt, psi)
            t += dt
    return np.abs(psi) ** 2


def test_rotating_frame_matches_lab_frame_oracle():
    sys = _two_level_sys()
    h0 = build_static_hamiltonian(sys)
    gap_hz = abs(np.real(h0[0, 0] - h0[2, 2])) / TWO_PI
    delta_hz = 4e6
    drive = DriveTerm(
        channel="MW",
        rabi_amplitude_hz=(20e6, 12e6, 16e6),
        carrier_hz=gap_hz - delta_hz,
        phase_rad=(0.0, 1.1, -0.7),
        piece_duration=12.5e-9,
    )
    # rotating-frame prediction: detuning delta appears on the diagonal
    h_pieces, dt = build_rotating_frame_hamiltonian(sys, [drive], (2, 0))
    for h in h_pieces:
        assert h[1, 1] - h[0, 0] == pytest.approx(TWO_PI * delta_hz, rel=1e-9)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    psi_rot = propagate(h_pieces, dt, psi0)
    pops_rot = np.abs(psi_rot) ** 2

    pops_lab = _lab_frame_populations(sys, drive, (2, 0), initial_idx=2)
    # populations of the driven pair are frame independent; residual
    # counter-rotating wiggle is O(Omega / 2 omega) ~ 5e-3
    assert pops_lab[2] == pytest.approx(pops_rot[0], abs=1e-2)
    assert pops_lab[0] == pytest.approx(pops_rot[1], abs=1e-2)


def test_propagate_identity():
    h = [np.zeros((2, 2))] * 3
    psi = np.array([0.6, 0.8j])
    np.testing.assert_allclose(propagate(h, 1e-6, psi), psi)


def test_propagate_pi_pulse_inversion():
    # resonant constant drive for a pi duration inverts the population
    omega = TWO_PI * 5e6
    t_pi = np.pi / omega
    sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
    psi = propagate([omega * sx], t_pi, np.array([1.0, 0.0]))
    assert abs(psi[1]) ** 2 >= 1 - 1e-9


def test_propagate_matches_rk4_oracle():
    rng = np.random.default_rng(7)
    h_pieces = []
    for _ in range(3):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h_pieces.append((a + a.conj().T) * 1e6)
    dt = 40e-9
    psi0 = np.array([1.0, 0, 0], dtype=complex)
    psi = propagate(h_pieces, dt, psi0)

    # oracle: classic RK4 on i dpsi/dt = H psi with fine steps
    psi_rk = psi0.copy()
    n_sub = 2000
    for h in h_pieces:
        f = lambda y: -1j * (h @ y)
        hstep = dt / n_sub
        for _ in range(n_sub):
            k1 = f(psi_rk)
            k2 = f(psi_rk + hstep / 2 * k1)
            k3 = f(psi_rk + hstep / 2 * k2)
            k4 = f(psi_rk + hstep * k3)
            psi_rk = psi_rk + hstep / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    np.testing.assert_allclose(psi, psi_rk, atol=1e-8)


def test_propagate_unitarity_and_composition():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h1 = (a + a.conj().T) * 1e6
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h2 = (b + b.conj().T) * 1e6
    dt = 100e-9
    u_ab = propagate([h1, h2], dt)
    u_a = propagate([h1], dt)
    u_b = propagate([h2], dt)
    np.testing.assert_allclose(u_ab, u_b @ u_a, atol=1e-12)
    np.testing.assert_allclose(u_ab.conj().T @ u_ab, np.eye(4), atol=1e-10)


def test_propagate_shape_error():
    with pytest.raises(ValueError):
        propagate([np.zeros((2, 2))], 1e-6, np.zeros(3))
