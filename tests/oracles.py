"""Reference physics the tests compare the package against.

No command runs this code: the package uses closed forms and the delta
comb, and these slower, more direct forms check them.

- ``propagate``: piecewise-constant propagation as a product of matrix
  exponentials, the reference for GRAPE's closed-form rotations.
- ``exact_filter``: the continuous filter function |y_T(omega)|^2 of a
  pi-pulse train, the reference for the delta comb and the depth overlap.
- ``exact_coherence``: the coherence from quadrature of the spectrum against
  ``exact_filter``, the reference for ``coherence_from_spectrum``.
"""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from nvsense.constants import GAMMA_E


def propagate(h_pieces, piece_duration, initial=None):
    """Product of exp(-i H dt) over Hermitian pieces H in rad/s.

    Returns the total unitary, or the evolved ``initial`` state or operator.
    """
    u = np.eye(len(h_pieces[0]), dtype=complex)
    for h in h_pieces:
        u = expm(-1j * np.asarray(h, dtype=complex) * piece_duration) @ u
    if initial is None:
        return u
    return u @ np.asarray(initial, dtype=complex)


def pulse_times(seq):
    """CPMG pulse times t_j = T (j - 1/2) / N of a DDSequence."""
    j = np.arange(1, seq.n_pulses + 1)
    return seq.total_time * (j - 0.5) / seq.n_pulses


def exact_filter(seq, omega):
    """|y_T(omega)|^2 of the +-1 toggling function, continuous in omega."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega < 0):
        raise ValueError("omega must be >= 0")
    t_j = pulse_times(seq)
    total = seq.total_time
    n = seq.n_pulses
    scalar = omega.ndim == 0
    w = np.atleast_1d(omega)

    with np.errstate(divide="ignore", invalid="ignore"):
        if n == 0:
            alt_sum = np.zeros_like(w, dtype=complex)
        else:
            # geometric closed form of sum_j (-1)^j exp(-i w tau (j - 1/2));
            # near the removable singularities at odd multiples of pi/tau the
            # explicit sum is used instead
            tau = total / n
            z = -np.exp(-1j * w * tau)
            denom = 1.0 - z
            alt_sum = -np.exp(-0.5j * w * tau) * (1.0 - z**n) / denom
            sing = np.abs(denom) < 1e-6
            if np.any(sing):
                signs = (-1.0) ** np.arange(1, n + 1)
                phases = np.exp(-1j * np.outer(w[sing], t_j))
                alt_sum[sing] = phases @ signs
        num = 1.0 + 2.0 * alt_sum - (-1.0) ** n * np.exp(-1j * w * total)
        y = num / (1j * w)
    # omega -> 0 limit: the DC value is the signed area of the toggling function
    small = np.abs(w) * total < 1e-8
    if np.any(small):
        edges = np.concatenate([[0.0], t_j, [total]])
        seg_signs = (-1.0) ** np.arange(n + 1)
        dc = float(np.sum(seg_signs * np.diff(edges)))
        y[small] = dc
    out = np.abs(y) ** 2
    return out[0] if scalar else out


def exact_coherence(spectrum, seq, gamma=GAMMA_E, k_max=200):
    """C = exp(-dphi^2 / 2), with dphi^2 = gamma^2 / pi * integral S F from
    quadrature against ``exact_filter`` up to the comb's top harmonic
    (2 k_max + 1) omega_0, band by band so the narrow passbands are resolved.
    """
    w0 = seq.omega0
    upper = (2 * k_max + 1) * w0
    edges = np.arange(0, 2 * k_max + 3, 2) * w0
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = quad(
            lambda w: spectrum(w) * exact_filter(seq, w),
            lo,
            min(hi, upper),
            limit=400,
            epsrel=1e-8,
            epsabs=0.0,
        )
        total += val
    dphi2 = gamma**2 / np.pi * total
    return float(np.exp(-dphi2 / 2.0))
