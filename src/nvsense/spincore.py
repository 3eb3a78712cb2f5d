"""NV electron / nitrogen nuclear spin system and piecewise-constant propagation.

The static Hamiltonian is diagonal in the S_z (x) I_z product basis:

    H0 = D S_z^2 + gamma_e B0 S_z + gamma_n B0 I_z + A_par S_z I_z

with every term converted to rad/s. Control drives are classical cosine
fields on S_x (MW channel) or I_x (RF channel); the rotating-frame builder
applies the rotating-wave approximation within a chosen level pair.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .constants import (
    A_PARALLEL_HZ,
    B0_TESLA,
    D_ZFS_HZ,
    GAMMA_E,
    GAMMA_N15,
    TWO_PI,
    hz_to_rad,
)
from .errors import NumericalError

UNITARITY_TOL = 1e-10


def spin_operators(s: float):
    """Return (sx, sy, sz) matrices for spin quantum number ``s``.

    Basis ordering is m = s, s-1, ..., -s.
    """
    n = round(2 * s + 1)
    if abs(n - (2 * s + 1)) > 1e-12 or n < 1:
        raise ValueError(f"invalid spin quantum number {s}")
    m = s - np.arange(n)
    sz = np.diag(m).astype(complex)
    # ladder operator S+ |s,m> = sqrt(s(s+1) - m(m+1)) |s,m+1>
    off = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((n, n), dtype=complex)
    sp[np.arange(n - 1), np.arange(1, n)] = off
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    return sx, sy, sz


@dataclass(frozen=True)
class SpinSystem:
    """NV electron spin plus adjacent nitrogen nuclear spin.

    Frequencies (``d_zfs``, ``a_parallel``) are given in Hz; gyromagnetic
    ratios in rad s^-1 T^-1. The nuclear spin quantum number defaults to
    1/2 (15N) but is configurable.
    """

    s_electron: float = 1.0
    i_nuclear: float = 0.5
    gamma_e: float = GAMMA_E
    gamma_n_nv: float = GAMMA_N15
    d_zfs: float = D_ZFS_HZ
    a_parallel: float = A_PARALLEL_HZ
    b0: float = B0_TESLA

    def __post_init__(self):
        vals = [self.gamma_e, self.gamma_n_nv, self.d_zfs, self.a_parallel, self.b0]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("all spin-system parameters must be finite")
        if self.b0 < 0:
            raise ValueError("b0 must be >= 0")

    @property
    def dim_electron(self) -> int:
        return round(2 * self.s_electron + 1)

    @property
    def dim_nuclear(self) -> int:
        return round(2 * self.i_nuclear + 1)

    @property
    def dim(self) -> int:
        return self.dim_electron * self.dim_nuclear

    def electron_operator(self, which: str) -> np.ndarray:
        """Electron spin operator (x/y/z) embedded in the product space."""
        op = spin_operators(self.s_electron)["xyz".index(which)]
        return np.kron(op, np.eye(self.dim_nuclear))

    def nuclear_operator(self, which: str) -> np.ndarray:
        """Nuclear spin operator (x/y/z) embedded in the product space."""
        op = spin_operators(self.i_nuclear)["xyz".index(which)]
        return np.kron(np.eye(self.dim_electron), op)


@dataclass(frozen=True)
class DriveTerm:
    """One piecewise-constant classical drive on the MW or RF channel.

    ``rabi_amplitude_hz`` and ``phase_rad`` carry one entry per piece;
    ``carrier_hz`` is the carrier frequency and ``piece_duration`` the
    common duration of each piece in seconds.
    """

    channel: str  # "MW" or "RF"
    rabi_amplitude_hz: tuple = ()
    carrier_hz: float = 0.0
    phase_rad: tuple = ()
    piece_duration: float = 0.0

    def __post_init__(self):
        if self.channel not in ("MW", "RF"):
            raise ValueError(f"unknown drive channel {self.channel!r}")
        if self.piece_duration <= 0:
            raise ValueError("piece_duration must be > 0")
        if len(self.rabi_amplitude_hz) != len(self.phase_rad):
            raise ValueError("amplitude and phase lists must match")
        if not all(np.isreal(a) for a in self.rabi_amplitude_hz):
            raise ValueError("Rabi amplitudes must be real")

    @property
    def n_pieces(self) -> int:
        return len(self.rabi_amplitude_hz)


def build_static_hamiltonian(sys: SpinSystem) -> np.ndarray:
    """Static Hamiltonian H0 in rad/s in the S_z (x) I_z product basis."""
    sz = sys.electron_operator("z")
    iz = sys.nuclear_operator("z")
    h0 = (
        hz_to_rad(sys.d_zfs) * (sz @ sz)
        + sys.gamma_e * sys.b0 * sz
        + sys.gamma_n_nv * sys.b0 * iz
        + hz_to_rad(sys.a_parallel) * (sz @ iz)
    )
    assert np.allclose(h0, h0.conj().T)
    return h0


def transition_frequencies(sys: SpinSystem) -> dict:
    """Electron |0> -> |+-1> transition frequencies in Hz (nuclear averaged out).

    Only meaningful for s_electron = 1.
    """
    gap_plus = sys.d_zfs + sys.gamma_e * sys.b0 / TWO_PI
    gap_minus = abs(sys.d_zfs - sys.gamma_e * sys.b0 / TWO_PI)
    return {"0->+1": gap_plus, "0->-1": gap_minus}


def _level_gap(h0: np.ndarray, subspace) -> float:
    """Angular-frequency gap between two diagonal levels of H0."""
    i, j = subspace
    return float(np.real(h0[j, j] - h0[i, i]))


def build_rotating_frame_hamiltonian(
    sys: SpinSystem,
    drives,
    subspace,
    detuning_window: float = 0.01,
):
    """Effective two-level Hamiltonians in the frame rotating at each carrier.

    ``subspace`` is a pair (i, j) of product-basis indices. Counter-rotating
    terms are dropped; each drive must sit within ``detuning_window``
    (fraction of carrier) of the subspace gap.

    Returns (h_pieces, piece_duration): a list of 2x2 Hermitian matrices in
    rad/s in the (lower level, upper level) basis, one per piece.
    """
    i, j = subspace
    h0 = build_static_hamiltonian(sys)
    if _level_gap(h0, (i, j)) < 0:
        i, j = j, i  # order as (lower, upper)
    gap = _level_gap(h0, (i, j))

    if not drives:
        raise ValueError("at least one drive is required")
    durations = {d.piece_duration for d in drives}
    if len(durations) != 1:
        raise ValueError("all drives must share the piece duration")
    n_pieces = {d.n_pieces for d in drives}
    if len(n_pieces) != 1:
        raise ValueError("all drives must share the piece count")
    dt = durations.pop()
    n = n_pieces.pop()

    sx_full = sys.electron_operator("x")
    ix_full = sys.nuclear_operator("x")
    sigma_z = np.diag([0.5, -0.5]).astype(complex)

    h_pieces = [np.zeros((2, 2), dtype=complex) for _ in range(n)]
    for drive in drives:
        w_carrier = hz_to_rad(drive.carrier_hz)
        if abs(w_carrier - gap) > detuning_window * w_carrier:
            raise ValueError(
                f"{drive.channel} carrier {drive.carrier_hz:.4g} Hz is not "
                f"within {detuning_window:.1%} of the subspace gap "
                f"{gap / TWO_PI:.4g} Hz"
            )
        coupling = sx_full if drive.channel == "MW" else ix_full
        # matrix element of the coupling operator between the two levels
        m_elem = coupling[i, j]
        if abs(m_elem) < 1e-12:
            raise ValueError(
                f"{drive.channel} drive does not couple levels {subspace}"
            )
        delta = gap - w_carrier  # rad/s, positive when carrier below gap
        for p in range(n):
            omega = hz_to_rad(drive.rabi_amplitude_hz[p]) * abs(m_elem)
            phi = drive.phase_rad[p]
            h_pieces[p] += (
                -delta * sigma_z
                + 0.5 * omega * np.array(
                    [[0, np.exp(1j * phi)], [np.exp(-1j * phi), 0]]
                )
            )
    return h_pieces, dt


def propagate(h_pieces, piece_duration, initial=None):
    """Propagate a state or unitary through piecewise-constant Hamiltonians.

    ``h_pieces`` is a sequence of Hermitian matrices in rad/s. Returns the
    final state (if ``initial`` is a vector), evolved operator (if a matrix),
    or the total unitary (if ``initial`` is None).
    """
    durations = np.broadcast_to(np.asarray(piece_duration, dtype=float), (len(h_pieces),))
    h_pieces = [np.asarray(h, dtype=complex) for h in h_pieces]
    if not h_pieces:
        raise ValueError("need at least one Hamiltonian piece")
    d = h_pieces[0].shape[0]
    u = np.eye(d, dtype=complex)
    for h, dt in zip(h_pieces, durations):
        if h.shape != (d, d):
            raise ValueError(f"Hamiltonian piece shape {h.shape} != ({d}, {d})")
        if not np.allclose(h, h.conj().T, atol=1e-9 * max(1.0, np.abs(h).max())):
            raise ValueError("Hamiltonian piece is not Hermitian")
        u = expm(-1j * h * dt) @ u
    err = np.linalg.norm(u.conj().T @ u - np.eye(d))
    if err > UNITARITY_TOL:
        raise NumericalError(f"propagation lost unitarity: {err:.2e}")
    if initial is None:
        return u
    initial = np.asarray(initial, dtype=complex)
    if initial.shape[0] != d:
        raise ValueError(f"initial dimension {initial.shape[0]} != {d}")
    return u @ initial
