"""GRAPE design of shaped pi and pi/2 pulses on a quasi-Newton solver.

Waveforms are piecewise-constant complex Rabi drives on a two-level
subspace. With Rabi frequency Omega (Hz) and detuning delta (Hz), the
piece Hamiltonian in rad/s is

    H = pi * scale * (Omega_re * sigma_x + Omega_im * sigma_y) + pi * delta * sigma_z

so a constant resonant drive of duration t performs a rotation by
2*pi*Omega*t. Gate quality is the ensemble-weighted phase-insensitive
fidelity |Tr(U_target^dag U)|^2 / d^2. Piece propagators and their
derivatives are closed-form Rodrigues expressions, so the gradient is
exact, not the first-order GRAPE approximation (Khaneja et al., JMR 172,
296, 2005). The target rotation is closed-form too, and must be a 2x2
unitary, which keeps the fidelity within [0, 1]. scipy is used for the
solver alone, L-BFGS-B, as in de Fouquieres et al., JMR 212, 412 (2011).
"""

from dataclasses import dataclass

import numpy as np

from .constants import A_PARALLEL_HZ
from .tables import write_table

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rotation_target(angle: float, axis: str = "x") -> np.ndarray:
    """Unitary exp(-i angle sigma / 2) of a rotation by ``angle`` about x or
    y, in closed form: cos(angle/2) I - i sin(angle/2) sigma."""
    if axis not in ("x", "y"):
        raise ValueError(f"rotation axis must be 'x' or 'y', got {axis!r}")
    half = 0.5 * angle
    return np.cos(half) * np.eye(2) - 1j * np.sin(half) * (SIGMA_X if axis == "x" else SIGMA_Y)


@dataclass(frozen=True)
class EnsembleMember:
    """One robustness-ensemble member: a detuning and an amplitude scale."""

    detuning_hz: float
    amplitude_scale: float
    weight: float


@dataclass(frozen=True)
class GrapeProblem:
    """Specification of one shaped-pulse optimization.

    The robustness ensemble emulates simultaneous control of the electron
    spin in both nuclear-spin subspaces: the default detunings are
    {0, +-A_par/2}.
    """

    target: np.ndarray
    n_pieces: int
    piece_duration: float
    max_rabi_hz: float
    ensemble: tuple = (
        EnsembleMember(0.0, 1.0, 0.5),
        EnsembleMember(+A_PARALLEL_HZ / 2, 1.0, 0.25),
        EnsembleMember(-A_PARALLEL_HZ / 2, 1.0, 0.25),
    )

    def __post_init__(self):
        if self.n_pieces < 1:
            raise ValueError("n_pieces must be >= 1")
        if self.piece_duration <= 0 or self.max_rabi_hz <= 0:
            raise ValueError("piece_duration and max_rabi_hz must be > 0")
        t = np.asarray(self.target)
        # a unitary target keeps |Tr(T^dag U)| / 2, and so the fidelity, in [0, 1]
        if t.shape != (2, 2) or not np.linalg.norm(t.conj().T @ t - np.eye(2)) <= 1e-12:
            raise ValueError("target must be a 2x2 unitary")
        w = sum(m.weight for m in self.ensemble)
        if abs(w - 1.0) > 1e-9:
            raise ValueError(f"ensemble weights sum to {w}, expected 1")


@dataclass
class Waveform:
    """Piecewise-constant complex Rabi waveform (Hz per piece)."""

    real_rabi_hz: np.ndarray
    imag_rabi_hz: np.ndarray
    piece_duration: float

    def __post_init__(self):
        self.real_rabi_hz = np.asarray(self.real_rabi_hz, dtype=float)
        self.imag_rabi_hz = np.asarray(self.imag_rabi_hz, dtype=float)
        if self.real_rabi_hz.shape != self.imag_rabi_hz.shape:
            raise ValueError("real/imag parts must have the same length")

    @property
    def n_pieces(self) -> int:
        return len(self.real_rabi_hz)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.hypot(self.real_rabi_hz, self.imag_rabi_hz)

    def to_csv(self) -> str:
        """A ``# piece_duration_s=`` comment line, then the piece table."""
        return f"# piece_duration_s={float(self.piece_duration)!r}\n" + write_table(
            "piece_index,real_rabi_hz,imag_rabi_hz",
            range(self.n_pieces),
            self.real_rabi_hz,
            self.imag_rabi_hz,
        )


_PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def _fidelity_and_gradient(problem: GrapeProblem, wf: Waveform):
    """(fidelity, (grad_real, grad_imag)), the gradient in 1/Hz.

    All (member, piece) rotations U = cos(theta) - i (sin(theta)/r) v.sigma,
    with v the Pauli vector in rad/s, r = |v| and theta = r dt, and their
    derivatives in v_x, v_y are built as (members, pieces, 2, 2) arrays.
    sin(theta)/r is a sinc, so r = 0 needs no special case.
    """
    if wf.n_pieces != problem.n_pieces:
        raise ValueError("waveform length does not match problem")
    dt = wf.piece_duration
    scale = np.array([m.amplitude_scale for m in problem.ensemble])
    weight = np.array([m.weight for m in problem.ensemble])
    detuning = np.array([m.detuning_hz for m in problem.ensemble])
    v = np.pi * np.stack(
        np.broadcast_arrays(
            np.outer(scale, wf.real_rabi_hz),
            np.outer(scale, wf.imag_rabi_hz),
            detuning[:, None],
        ),
        axis=-1,
    )
    r2 = np.sum(v**2, axis=-1)
    theta = np.sqrt(r2) * dt
    cos = np.cos(theta)[..., None, None]
    sinc = dt * np.sinc(theta / np.pi)[..., None, None]  # sin(theta) / r
    # (d sinc / dr) / r; where r = 0 it multiplies v_a = 0, so any finite value does
    dsinc = (dt * cos - sinc) / np.maximum(r2, np.finfo(float).tiny)[..., None, None]
    v_sigma = np.tensordot(v, _PAULI, axes=1)
    eye = np.eye(2)
    u = cos * eye - 1j * sinc * v_sigma
    # dU/dv_a = v_a (-dt sinc - i dsinc v.sigma) - i sinc sigma_a, for a = x, y
    radial = -dt * sinc * eye - 1j * dsinc * v_sigma
    du = v[..., :2, None, None] * radial[:, :, None] - 1j * sinc[:, :, None] * _PAULI[:2]

    # fwd[:, k] = U_{k-1} ... U_0 and bwd[:, k] = T^dag U_{n-1} ... U_{k+1}
    n = wf.n_pieces
    fwd = np.empty_like(u)
    bwd = np.empty_like(u)
    f = np.broadcast_to(eye, u.shape[:1] + (2, 2)).astype(complex)
    b = np.broadcast_to(problem.target.conj().T, f.shape).astype(complex)
    for k in range(n):
        fwd[:, k], f = f, u[:, k] @ f
        bwd[:, n - 1 - k], b = b, b @ u[:, n - 1 - k]
    tr = np.trace(b, axis1=-2, axis2=-1)  # b is now T^dag U per member
    # d Tr(T^dag U) = Tr(bwd dU fwd) = sum_ij (fwd bwd)_ji dU_ij
    dtr = np.einsum("mkji,mkaij->mka", fwd @ bwd, du)
    fid = float(weight @ np.abs(tr) ** 2) / 4.0
    grad = np.einsum(
        "m,mka->ak", weight * np.pi * scale / 2.0, np.real(tr.conj()[:, None, None] * dtr)
    )
    return fid, (grad[0], grad[1])


def fidelity(problem: GrapeProblem, wf: Waveform) -> float:
    """Ensemble-weighted gate fidelity in [0, 1]."""
    return _fidelity_and_gradient(problem, wf)[0]


def grape_gradient(problem: GrapeProblem, wf: Waveform):
    """Exact gradient of the fidelity w.r.t. per-piece real/imag amplitudes.

    Returns (grad_real, grad_imag) in units of 1/Hz.
    """
    return _fidelity_and_gradient(problem, wf)[1]


@dataclass
class OptimizeResult:
    waveform: Waveform
    fidelity: float
    trace: np.ndarray  # fidelity at the start and after each iteration
    converged: bool
    n_iterations: int


def optimize(
    problem: GrapeProblem,
    seed: int = 0,
    target_infidelity: float = 1e-5,
    max_iterations: int = 20000,
    n_restarts: int = 4,
) -> OptimizeResult:
    """Maximize the fidelity by L-BFGS-B from random starts.

    Deterministic given ``seed``. Up to ``n_restarts + 1`` starts are tried,
    stopping at the first that converges. On non-convergence the best
    waveform seen is returned with ``converged=False``.
    """
    rng = np.random.default_rng(seed)
    amp = 0.3 * problem.max_rabi_hz
    best = None
    for _ in range(max(1, n_restarts + 1)):
        start = Waveform(
            rng.uniform(-amp, amp, problem.n_pieces),
            rng.uniform(-amp, amp, problem.n_pieces),
            problem.piece_duration,
        )
        res = _descend(problem, start, target_infidelity, max_iterations)
        if best is None or res.fidelity > best.fidelity:
            best = res
        if best.converged:
            break
    return best


def _descend(problem, wf, target_infidelity, max_iterations):
    """L-BFGS-B on the infidelity over each piece's amplitude and phase.

    Amplitudes are in units of ``max_rabi_hz`` (in Hz the gradient would sit
    below the solver's projected-gradient tolerance), boxed to [0, 1], which
    is exactly the radial bound; phases are free. The infidelity is at most
    1, so the default relative-reduction test would act as an absolute one
    and stop on plateaus near 1e-3; ftol = 0 turns it off.
    """
    from scipy.optimize import minimize

    n = problem.n_pieces

    def waveform(p):
        amp, phase = problem.max_rabi_hz * p[:n], p[n:]
        return Waveform(amp * np.cos(phase), amp * np.sin(phase), problem.piece_duration)

    def infidelity_and_gradient(p):
        wf = waveform(p)
        f, (gre, gim) = _fidelity_and_gradient(problem, wf)
        d_amp = problem.max_rabi_hz * (gre * np.cos(p[n:]) + gim * np.sin(p[n:]))
        d_phase = gim * wf.real_rabi_hz - gre * wf.imag_rabi_hz
        return 1.0 - f, -np.concatenate([d_amp, d_phase])

    def callback(intermediate_result):
        trace.append(1.0 - intermediate_result.fun)
        if intermediate_result.fun <= target_infidelity:
            raise StopIteration

    p0 = np.concatenate(
        [
            np.minimum(wf.amplitudes / problem.max_rabi_hz, 1.0),
            np.arctan2(wf.imag_rabi_hz, wf.real_rabi_hz),
        ]
    )
    trace = [1.0 - infidelity_and_gradient(p0)[0]]
    res = minimize(
        infidelity_and_gradient,
        p0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, 1.0)] * n + [(None, None)] * n,
        callback=callback,
        options={"maxiter": max_iterations, "ftol": 0.0},
    )
    wf = waveform(res.x)
    f = fidelity(problem, wf)
    return OptimizeResult(
        waveform=wf,
        fidelity=f,
        trace=np.array(trace),
        converged=bool(1.0 - f <= target_infidelity),
        n_iterations=res.nit,
    )
