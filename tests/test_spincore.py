"""Checks of the reference propagator in ``oracles.py``: the spin-core
product of matrix exponentials that GRAPE's closed-form kernel is tested
against."""

import numpy as np
import pytest

from nvsense.constants import TWO_PI
from oracles import propagate


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
