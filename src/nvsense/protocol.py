"""Seeded Monte Carlo simulator of the full measurement protocol:
charge-state initialization with real-time feedback, phase accumulation on
an applied test field, and repetitive nuclear-assisted readout with photon
shot noise.

Randomness uses counter-based Philox streams keyed per fixed-size shot
batch, so results are bit-identical regardless of how batches are
distributed over workers.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import pdtr, pdtrc

from .sensitivity import SensitivityBudget
from .sequences import DDSequence
from .tables import write_table

BATCH_SIZE = 4096


def _rng(seed: int, batch: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, batch]))


@dataclass(frozen=True)
class ChargeReadoutModel:
    """Two-peak Poissonian photon model of the NV charge states under
    orange readout, plus the feedback loop settings."""

    mean_photons_minus: float = 0.5  # NV- counts per readout window
    mean_photons_zero: float = 0.05  # NV0 counts per readout window
    readout_window: float = 970e-9  # s
    mixing_pulse: float = 95e-9  # s
    equilibrium_fraction: float = 0.74  # NV- population without feedback
    max_cycles: int = 100
    threshold: int = 1  # accept when counts >= threshold

    def __post_init__(self):
        if self.mean_photons_minus <= 0 or self.mean_photons_zero <= 0:
            raise ValueError("photon means must be > 0")
        if self.mean_photons_minus == self.mean_photons_zero:
            raise ValueError("photon means must be distinct")
        if not 0 < self.equilibrium_fraction < 1:
            raise ValueError("equilibrium fraction must be in (0, 1)")
        if self.max_cycles < 1 or self.threshold < 1:
            raise ValueError("max_cycles and threshold must be >= 1")

    @property
    def cycle_duration(self) -> float:
        return self.readout_window + self.mixing_pulse


@dataclass
class ChargeInitResult:
    success_fraction: float
    purity: float  # P(NV- | accepted)
    purity_no_feedback: float
    cycles_histogram: np.ndarray  # counts of cycles used, index 1..max


def _charge_init_batch(model: ChargeReadoutModel, rng, m: int):
    """Vectorized feedback loop for a batch of m trials.

    Returns (accepted mask, NV- mask at acceptance, cycles used)."""
    accepted = np.zeros(m, dtype=bool)
    is_minus = np.zeros(m, dtype=bool)
    cycles = np.full(m, model.max_cycles, dtype=int)
    for cyc in range(1, model.max_cycles + 1):
        active = ~accepted
        if not np.any(active):
            break
        n_act = int(np.count_nonzero(active))
        # mixing pulse re-equilibrates the charge state of active trials
        state = rng.random(n_act) < model.equilibrium_fraction
        lam = np.where(
            state, model.mean_photons_minus, model.mean_photons_zero
        )
        counts = rng.poisson(lam)
        ok = counts >= model.threshold
        idx = np.flatnonzero(active)
        newly = idx[ok]
        accepted[newly] = True
        is_minus[newly] = state[ok]
        cycles[newly] = cyc
    return accepted, is_minus, cycles


def simulate_charge_init(
    model: ChargeReadoutModel, n_trials: int, seed: int
) -> ChargeInitResult:
    """Monte Carlo of the real-time-feedback charge initialization."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    acc_n = minus_n = 0
    cyc_hist = np.zeros(model.max_cycles + 1, dtype=np.int64)
    for batch in range(0, -(-n_trials // BATCH_SIZE)):
        m = min(BATCH_SIZE, n_trials - batch * BATCH_SIZE)
        rng = _rng(seed, batch)
        accepted, is_minus, cycles = _charge_init_batch(model, rng, m)
        acc_n += int(np.count_nonzero(accepted))
        minus_n += int(np.count_nonzero(is_minus & accepted))
        cyc_hist += np.bincount(
            cycles[accepted], minlength=model.max_cycles + 1
        )
    purity = minus_n / acc_n if acc_n else float("nan")
    return ChargeInitResult(
        success_fraction=acc_n / n_trials,
        purity=purity,
        purity_no_feedback=model.equilibrium_fraction,
        cycles_histogram=cyc_hist,
    )


@dataclass(frozen=True)
class ReadoutChainModel:
    """Repetitive nuclear-spin readout: per-cycle photon means conditioned
    on the nuclear state, and a per-cycle flip probability modeling the
    finite nondestructiveness."""

    mean_photons_one: float = 0.06
    mean_photons_zero: float = 0.01
    flip_probability: float = 1.6e-4
    n_cycles: int = 2500

    def __post_init__(self):
        if self.mean_photons_one <= self.mean_photons_zero:
            raise ValueError("state-1 photon mean must exceed state-0 mean")
        if self.mean_photons_zero < 0:
            raise ValueError("photon means must be >= 0")
        if not 0 <= self.flip_probability < 1:
            raise ValueError("flip probability must be in [0, 1)")
        if self.n_cycles < 0:
            raise ValueError("n_cycles must be >= 0")

    def classification_threshold(self) -> float:
        """Summed-count threshold halfway between the two state means."""
        return (
            0.5 * self.n_cycles * (self.mean_photons_one + self.mean_photons_zero)
        )

    def assignment_fidelity(self) -> float:
        """Deterministic aggregate fidelity of the summed-count classifier.

        Marginalizes over the cycle of the first nuclear flip; cycles after
        the flip are assigned the mean photon rate of a chain relaxing
        toward the depolarized mixture, so the fidelity tends to 1/2 (not
        zero) when flip_probability * n_cycles >> 1. Poisson tail masses
        are evaluated on both sides of the threshold.
        """
        n = self.n_cycles
        if n == 0:
            return 0.5
        q = self.flip_probability
        thr = self.classification_threshold()
        one, zero = self.mean_photons_one, self.mean_photons_zero
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


def _readout_photons(model: ReadoutChainModel, rng, states: np.ndarray):
    """Summed photon counts for a batch of shots with given initial nuclear
    states, including stochastic flips along the chain."""
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
    lam = (
        n_one * model.mean_photons_one
        + (n - n_one) * model.mean_photons_zero
    )
    return rng.poisson(lam)


def simulate_repetitive_readout(
    model: ReadoutChainModel, true_state: int, n_shots: int, seed: int
):
    """Monte Carlo assignment fidelity of the repetitive readout.

    Returns (fidelity, photons per shot)."""
    if true_state not in (0, 1):
        raise ValueError("true_state must be 0 or 1")
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    thr = model.classification_threshold()
    photons = np.empty(n_shots, dtype=np.int64)
    for batch in range(0, -(-n_shots // BATCH_SIZE)):
        m = min(BATCH_SIZE, n_shots - batch * BATCH_SIZE)
        rng = _rng(seed, batch)
        states = np.full(m, true_state)
        sl = slice(batch * BATCH_SIZE, batch * BATCH_SIZE + m)
        photons[sl] = _readout_photons(model, rng, states)
    if model.n_cycles == 0:
        return 0.5, photons
    classified = photons > thr
    correct = classified if true_state == 1 else ~classified
    return float(np.mean(correct)), photons


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything needed to simulate one magnetometry run."""

    sequence: DDSequence
    budget: SensitivityBudget
    charge: ChargeReadoutModel = ChargeReadoutModel()
    readout: ReadoutChainModel = ReadoutChainModel()
    b_v: float = 112e-9  # applied field per AWG volt, T/V

    def __post_init__(self):
        if not np.isclose(self.sequence.total_time, self.budget.t_c):
            raise ValueError(
                "sequence total_time and budget t_c disagree: "
                f"{self.sequence.total_time} vs {self.budget.t_c}"
            )
        if self.b_v <= 0:
            raise ValueError("b_v must be > 0")

    @property
    def shot_duration(self) -> float:
        return self.budget.t_c + self.budget.t_ir

    def descriptor(self) -> dict:
        return {
            "sequence": self.sequence.descriptor(),
            "t_c_s": self.budget.t_c,
            "t_ir_s": self.budget.t_ir,
            "c": self.budget.c,
            "f_i": self.budget.f_i,
            "b_v_t_per_v": self.b_v,
            "readout_cycles": self.readout.n_cycles,
        }


@dataclass
class ExperimentRun:
    """Shot-level record of one simulated run."""

    seed: int
    config: dict  # descriptor of the ProtocolConfig
    signal: float  # chopped amplitude, T
    signs: np.ndarray  # +-1 chop sign per shot
    init_cycles: np.ndarray  # feedback cycles used per shot
    photons: np.ndarray  # summed readout photons per shot
    shot_duration: float

    def demodulated(self) -> np.ndarray:
        """Per-shot outcomes with the chop sign applied and the photon
        baseline removed."""
        return self.signs * (self.photons - np.mean(self.photons))

    def to_csv(self) -> str:
        return write_table(
            "shot,sign,init_cycles,photons",
            range(len(self.photons)),
            self.signs.astype(np.int8),  # +-1
            self.init_cycles,
            self.photons,
        )

    def summary_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "config": self.config,
                "signal_t": self.signal,
                "n_shots": len(self.photons),
                "shot_duration_s": self.shot_duration,
                "mean_photons": float(np.mean(self.photons)),
            },
            sort_keys=True,
        )


def _experiment_batch(config: ProtocolConfig, signal, rng, m):
    """One vectorized batch of the full protocol; ``signal`` is the applied
    field per shot in tesla (already signed)."""
    charge = config.charge
    accepted, _, cycles = _charge_init_batch(charge, rng, m)
    # f_i is the overall initialization fidelity and already covers the
    # residual NV0 contamination after feedback; only outright feedback
    # failure zeroes the fringe contrast
    contrast = np.where(accepted, config.budget.c * config.budget.f_i, 0.0)
    phase = config.budget.gamma_e * signal * config.budget.t_c
    p_one = 0.5 * (1.0 + contrast * np.sin(phase))
    states = rng.random(m) < p_one
    photons = _readout_photons(config.readout, rng, states)
    return cycles, photons


def run_experiment(
    config: ProtocolConfig,
    signal: float,
    n_shots: int,
    seed: int,
    chopped: bool = True,
    workers: int = 1,
) -> ExperimentRun:
    """Simulate ``n_shots`` of the full protocol with a chopped test field.

    The applied field alternates +-signal shot by shot (or stays constant
    with ``chopped=False``); outputs feed sensitivity_from_timeseries and
    fit_fringe. Each fixed-size shot batch owns an independent counter-based
    stream, so any ``workers`` count produces identical results.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    signs = np.where(np.arange(n_shots) % 2 == 0, 1.0, -1.0)
    if not chopped:
        signs = np.ones(n_shots)
    init_cycles = np.empty(n_shots, dtype=np.int64)
    photons = np.empty(n_shots, dtype=np.int64)

    def one_batch(batch):
        lo = batch * BATCH_SIZE
        m = min(BATCH_SIZE, n_shots - lo)
        rng = _rng(seed, batch)
        return lo, m, _experiment_batch(config, signal * signs[lo : lo + m], rng, m)

    batches = range(0, -(-n_shots // BATCH_SIZE))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_batch, batches))
    else:
        results = [one_batch(b) for b in batches]
    for lo, m, (cycles, pho) in results:
        init_cycles[lo : lo + m] = cycles
        photons[lo : lo + m] = pho
    return ExperimentRun(
        seed=seed,
        config=config.descriptor(),
        signal=signal,
        signs=signs,
        init_cycles=init_cycles,
        photons=photons,
        shot_duration=config.shot_duration,
    )


def nv3_config() -> ProtocolConfig:
    """Protocol preset matching the deepest-characterized emitter: XY16-512
    over 1.8 ms, 3.336 ms per shot, C from a stretched-exponential decay
    with T2 = 2.0 ms and exponent 1.5."""
    budget = SensitivityBudget(
        t_c=1.8e-3,
        c=math.exp(-((1.8 / 2.0) ** 1.5)),
        f_i=0.92,
        f_r=0.84,
        t_ir=3.336e-3 - 1.8e-3,
    )
    return ProtocolConfig(
        sequence=DDSequence("XY16", 512, 1.8e-3),
        budget=budget,
    )


def simulate_fringe(
    config: ProtocolConfig,
    volts,
    shots_per_point: int,
    seed: int,
):
    """Mean readout photons versus applied AWG voltage.

    Returns (volts, mean counts); pair with fit_fringe to recover the
    field-per-volt coefficient.
    """
    volts = np.asarray(volts, dtype=float)
    means = np.empty(len(volts))
    for i, v in enumerate(volts):
        run = run_experiment(
            config,
            signal=config.b_v * v,
            n_shots=shots_per_point,
            seed=seed + i,
            chopped=False,
        )
        means[i] = float(np.mean(run.photons))
    return volts, means
