"""Reference physics the tests compare the package against.

No command runs this code: the package uses closed forms and the delta
comb, and these slower, more direct forms check them.

- ``propagate``: piecewise-constant propagation as a product of matrix
  exponentials, the reference for GRAPE's closed-form rotations.
- ``exact_filter``: the continuous filter function |y_T(omega)|^2 of a
  pi-pulse train, the reference for the delta comb and the depth overlap.
- ``exact_coherence``: the coherence from quadrature of the spectrum against
  ``exact_filter``, the reference for ``coherence_from_spectrum``.
- ``jacobi_spectrum``: the odd-harmonic deconvolution as ``n`` Jacobi
  passes, each band's harmonics taken from the previous pass, the reference
  for ``spectrum_iterate``'s top-down sweep.
- ``charge_init_batch`` and ``readout_photons``: the feedback loop and the
  flip chain stepped round by round over the whole batch, the reference in
  distribution for the protocol's kernels, which draw the loop's outcome in
  closed form and step only the shots still in the chain.
- ``assignment_fidelity``: the repetitive readout's fidelity in closed form,
  the reference for the readout Monte Carlo.
- ``demodulate`` and ``eta_from_outcomes``: the float64 sensitivity curve,
  per-shot outcomes averaged window by window with ``np.mean`` and
  ``np.std``, the reference for ``sensitivity_from_timeseries``'s exact
  window sums.
- ``eta_exact``: the same curve from the definition in rational arithmetic,
  two passes over each window and a 40-digit square root.
- ``eta_model``: the protocol's sensitivity from the closed-form mean and
  variance of a shot's outcome, the reference for the asymptote of
  ``run_experiment`` fed through ``sensitivity_from_timeseries``.
"""

import math
from decimal import Context
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import pdtr, pdtrc
from scipy.stats import poisson

from nvsense.constants import GAMMA_E
from nvsense.noisespec import GRID_HARMONICS, NoiseSpectrum, _zeroth, fit_lorentzian


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


def jacobi_spectrum(omega0, s0, n):
    """``n`` passes of S_n(omega_0) = pi^2/8 S0(omega_0) - sum_{m>=3 odd}
    S_{n-1}(m omega_0) / m^2 from S_0 = pi^2/8 S0, all bands at once: the
    harmonics on the grid from the previous pass, those past it from the
    fitted model, as ``spectrum_iterate`` forms them -> NoiseSpectrum."""
    order = np.argsort(omega0)
    omega0, s0 = np.asarray(omega0, dtype=float)[order], np.asarray(s0, dtype=float)[order]
    first = np.r_[True, omega0[1:] > omega0[:-1] * (1 + 1e-9)]
    group = np.cumsum(first) - 1
    omega0, s0 = omega0[first], np.bincount(group, s0) / np.bincount(group)
    fit = fit_lorentzian(omega0, s0)
    counts = np.minimum((omega0[-1] / omega0 - 1) // 2, GRID_HARMONICS).astype(int)
    band = np.repeat(np.arange(len(omega0)), counts)
    m = 2 * (np.arange(len(band)) - np.repeat(np.cumsum(counts) - counts, counts)) + 3

    def on_grid(spectrum):
        return np.bincount(band, spectrum(m * omega0[band]) / m**2, minlength=len(omega0))

    naive, comb = np.pi**2 / 8 * s0, np.pi**2 / 8 * _zeroth(omega0, fit.s_max, fit.width, fit.floor)
    tail = comb - fit.spectrum(omega0) - on_grid(fit.spectrum)
    current = NoiseSpectrum(omega0, naive)
    for _ in range(n):
        corr = on_grid(current.evaluate) + tail
        current = NoiseSpectrum(omega0, np.clip(naive - corr, 0.0, None))
    return current


def charge_init_batch(model, rng, m):
    """The feedback loop over all m trials, masking the accepted ones.

    Returns (accepted mask, NV- mask at acceptance, cycles used)."""
    accepted = np.zeros(m, dtype=bool)
    is_minus = np.zeros(m, dtype=bool)
    cycles = np.full(m, model.max_cycles, dtype=int)
    for cyc in range(1, model.max_cycles + 1):
        active = ~accepted
        if not np.any(active):
            break
        n_act = int(np.count_nonzero(active))
        state = rng.random(n_act) < model.equilibrium_fraction
        lam = np.where(state, model.mean_photons_minus, model.mean_photons_zero)
        counts = rng.poisson(lam)
        ok = counts >= model.threshold
        idx = np.flatnonzero(active)
        newly = idx[ok]
        accepted[newly] = True
        is_minus[newly] = state[ok]
        cycles[newly] = cyc
    return accepted, is_minus, cycles


def readout_photons(model, rng, states):
    """Summed photon counts of the readout chain, stepping every shot of the
    batch through every round of the flip loop."""
    m = len(states)
    n = model.n_cycles
    n_one = np.zeros(m)  # cycles spent in state 1
    pos = np.zeros(m)
    cur = states.astype(bool).copy()
    q = model.flip_probability
    if q == 0 or n == 0:
        n_one = np.where(cur, float(n), 0.0)
    else:
        remaining = np.full(m, True)
        while np.any(remaining):
            steps = rng.geometric(q, size=m)
            steps = np.minimum(steps, n - pos)
            n_one += np.where(cur & remaining, steps, 0.0)
            pos += np.where(remaining, steps, 0.0)
            cur = np.where(remaining, ~cur, cur)
            remaining = pos < n
    lam = n_one * model.mean_photons_one + (n - n_one) * model.mean_photons_zero
    return rng.poisson(lam)


def assignment_fidelity(model) -> float:
    """Deterministic aggregate fidelity of the summed-count classifier of a
    ``ReadoutChainModel``.

    Marginalizes over the cycle of the first nuclear flip; cycles after
    the flip are assigned the mean photon rate of a chain relaxing
    toward the depolarized mixture, so the fidelity tends to 1/2 (not
    zero) when flip_probability * n_cycles >> 1. Poisson tail masses
    are evaluated on both sides of the threshold.
    """
    n = model.n_cycles
    if n == 0:
        return 0.5
    q = model.flip_probability
    thr = model.classification_threshold()
    one, zero = model.mean_photons_one, model.mean_photons_zero
    mix = 0.5 * (one + zero)
    # first flip after cycle k (k cycles in the initial state)
    k = np.arange(n + 1)
    if q > 0:
        w = q * (1 - q) ** k[:-1]
        w = np.append(w, (1 - q) ** n)  # no flip within the chain
    else:
        w = np.zeros(n + 1)
        w[-1] = 1.0
    # mean polarization retained over the m cycles after a flip
    m = n - k
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(
            (q > 0) & (m > 0), (1.0 - np.exp(-2 * q * m)) / (2 * q * m), 1.0
        )
    lam_hi = k * one + m * (mix + (zero - mix) * g)
    lam_lo = k * zero + m * (mix + (one - mix) * g)
    # Poisson P(X > thr) and P(X <= thr); counts are integers
    k_thr = math.floor(thr)
    p_correct_1 = float(np.sum(w * pdtrc(k_thr, lam_hi)))
    p_correct_0 = float(np.sum(w * pdtr(k_thr, lam_lo)))
    return 0.5 * (p_correct_1 + p_correct_0)


def demodulate(counts, signs):
    """Per-shot outcomes signs * (counts - mean(counts)) as float64."""
    outcomes = counts - np.mean(counts)
    outcomes *= signs  # exact: each factor is +-1
    return outcomes


def eta_from_outcomes(outcomes, signal_amplitude, shot_duration):
    """(times, eta, asymptote) from float64 outcomes: mean over standard
    error of each prefix window, with eta = amplitude sqrt(t) / SNR."""
    x = np.asarray(outcomes, dtype=float)
    ns = np.unique(np.geomspace(100, len(x), 50).astype(int))
    times = ns * shot_duration
    eta = np.empty(len(ns))
    for i, n in enumerate(ns):
        seg = x[:n]
        snr = abs(np.mean(seg)) / (np.std(seg, ddof=1) / np.sqrt(n))
        eta[i] = signal_amplitude * np.sqrt(times[i]) / snr if snr > 0 else np.inf
    tail = times >= times[-1] / np.sqrt(10.0)
    return times, eta, float(np.mean(eta[tail]))


def eta_exact(counts, signs, signal_amplitude, times):
    """eta at each averaging time in ``times`` (floats, taken as exact), from
    the outcome of each shot as a fraction: the window's mean, then its
    variance as the sum of squares about that mean (ddof=1), then
    amplitude sqrt(t var / n) / |mean| to 40 significant digits."""
    counts, signs = [int(c) for c in counts], [int(s) for s in signs]
    n_shots = len(counts)
    ns = np.unique(np.geomspace(100, n_shots, 50).astype(int)).tolist()
    # outcomes scaled by n_shots are integers: s (n_shots p - sum p)
    total = sum(counts)
    y = [s * (n_shots * p - total) for p, s in zip(counts, signs)]
    digits = Context(prec=40)
    out = []
    for n, t in zip(ns, times):
        y_sum = sum(y[:n])  # n_shots * n * mean
        sq = sum((n * v - y_sum) ** 2 for v in y[:n])  # (n n_shots)^2 ss
        var = Fraction(sq, (n * n_shots) ** 2 * (n - 1))
        mean = Fraction(y_sum, n * n_shots)
        eta2 = Fraction(signal_amplitude) ** 2 * Fraction(t) * var / (n * mean**2)
        root = digits.sqrt(digits.divide(eta2.numerator, eta2.denominator))
        out.append(float(root))
    return np.array(out)


def eta_model(config, signal):
    """The protocol's sensitivity in T/sqrt(Hz) from its charge,
    readout-chain and Poisson models, for a chop of amplitude ``signal``.

    A shot is accepted with P_acc = 1 - (1 - p_acc)^max_cycles, p_acc the
    per-cycle chance that the charge readout reaches the threshold, so the
    chop sets the nuclear start spin to a mean of +-eps with
    eps = c f_i P_acc sin(gamma_e B t_c). Readout cycle i keeps that start
    with correlation r^i, r = 1 - 2q, so the mean outcome is
    (mu_1 - mu_0) eps S / 2 with S = sum_i r^i. Its variance is the Poisson
    mean n (mu_0 + mu_1) / 2 plus (mu_1 - mu_0)^2 / 4 times the variance of
    the summed spin, sum_ij r^|i-j| - (eps S)^2; the last term is the
    square of the mean outcome. eta = B sqrt(t_shot) sd / mean.
    """
    charge, chain, budget = config.charge, config.readout, config.budget
    f = charge.equilibrium_fraction
    tails = poisson.sf(
        charge.threshold - 1, [charge.mean_photons_minus, charge.mean_photons_zero]
    )
    p_acc = f * tails[0] + (1 - f) * tails[1]
    accepted = 1 - (1 - p_acc) ** charge.max_cycles
    eps = budget.c * budget.f_i * accepted
    eps *= math.sin(budget.gamma_e * signal * budget.t_c)
    n, r = chain.n_cycles, 1 - 2 * chain.flip_probability
    lag = np.arange(1, n)
    pairs = n + 2 * float(np.sum((n - lag) * r**lag))
    dmu = chain.mean_photons_one - chain.mean_photons_zero
    mean = dmu * eps * float(np.sum(r ** np.arange(n))) / 2
    var = n * (chain.mean_photons_zero + chain.mean_photons_one) / 2
    var += dmu**2 / 4 * pairs - mean**2
    return signal * math.sqrt(config.shot_duration * var) / mean
