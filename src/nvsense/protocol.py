"""Seeded Monte Carlo simulator of the full measurement protocol:
charge-state initialization with real-time feedback, phase accumulation on
an applied test field, and repetitive nuclear-assisted readout with photon
shot noise.

Randomness uses counter-based Philox streams keyed per fixed-size shot
batch, so results are bit-identical regardless of how batches are
distributed over workers. ``run_experiment``'s calling thread is worker 0;
``workers=N`` adds N - 1 helper threads, and each worker writes its batches
straight into the shot record.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .sensitivity import SensitivityBudget
from .tables import table_blocks

BATCH_SIZE = 4096


def _batches(n: int, seed: int, first: int = 0, step: int = 1):
    """Every ``step``-th fixed-size batch of ``n`` draws from batch ``first``:
    its slice of the draws and its own Philox stream, keyed by the seed and
    the batch index."""
    for batch in range(first, -(-n // BATCH_SIZE), step):
        lo = batch * BATCH_SIZE
        rng = np.random.Generator(np.random.Philox(key=[seed, batch]))
        yield slice(lo, min(lo + BATCH_SIZE, n)), rng


@dataclass(frozen=True)
class ChargeReadoutModel:
    """Two-peak Poissonian photon model of the NV charge states under
    orange readout, plus the feedback loop settings."""

    mean_photons_minus: float = 0.5  # NV- counts per readout window
    mean_photons_zero: float = 0.05  # NV0 counts per readout window
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


@dataclass
class ChargeInitResult:
    success_fraction: float
    purity: float  # P(NV- | accepted)
    purity_no_feedback: float
    cycles_histogram: np.ndarray  # counts of cycles used, index 1..max


def _poisson_tail(k: int, mu: float) -> float:
    """P(X >= k) for X ~ Poisson(mu), summed on the side of the mean where
    the terms do not cancel; 0.0 where it underflows."""

    def pmf(j):
        return math.exp(j * math.log(mu) - mu - math.lgamma(j + 1))

    if k <= mu:
        return 1.0 - math.fsum(map(pmf, range(k)))
    tail, j, term = 0.0, k, pmf(k)
    while term > tail * 1e-17:  # terms fall by mu / j < 1 from the first
        tail += term
        j += 1
        term *= mu / j
    return tail


def _charge_init_batch(model: ChargeReadoutModel, rng, m: int):
    """The feedback loop's outcome for a batch of m trials, drawn in closed
    form.

    Every cycle is the same independent trial: a mixing pulse leaves NV-
    with probability f, and the readout accepts with the Poisson tail of
    that state's photon mean. So the cycle of acceptance is
    Geometric(p_acc), and NV- at acceptance is Bernoulli(p_minus / p_acc),
    independent of that cycle. A trial still rejected after ``max_cycles``
    fails. Both draws cover all m trials, so the stream position does not
    depend on the outcomes. Returns (accepted mask, NV- mask at acceptance,
    cycles used)."""
    f = model.equilibrium_fraction
    p_minus = f * _poisson_tail(model.threshold, model.mean_photons_minus)
    p_acc = p_minus + (1 - f) * _poisson_tail(
        model.threshold, model.mean_photons_zero
    )
    if p_acc == 0.0:  # no trial can ever reach the threshold
        return np.zeros(m, bool), np.zeros(m, bool), np.full(m, model.max_cycles)
    cycles = rng.geometric(p_acc, size=m)
    accepted = cycles <= model.max_cycles
    is_minus = accepted & (rng.random(m) < p_minus / p_acc)
    return accepted, is_minus, np.minimum(cycles, model.max_cycles)


def simulate_charge_init(
    model: ChargeReadoutModel, n_trials: int, seed: int
) -> ChargeInitResult:
    """Monte Carlo of the real-time-feedback charge initialization."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    acc_n = minus_n = 0
    cyc_hist = np.zeros(model.max_cycles + 1, dtype=np.int64)
    for sl, rng in _batches(n_trials, seed):
        accepted, is_minus, cycles = _charge_init_batch(
            model, rng, sl.stop - sl.start
        )
        acc_n += int(np.count_nonzero(accepted))
        minus_n += int(np.count_nonzero(is_minus))
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


def photon_bound(model: ReadoutChainModel) -> int:
    """An upper bound on one shot's summed photons: lam + 40 sqrt(lam) + 40
    with lam = n_cycles * mean_photons_one, the largest Poisson mean a shot
    can have. A Poisson draw beyond it has probability below 1e-120."""
    lam = model.n_cycles * model.mean_photons_one
    return math.ceil(lam + 40 * math.sqrt(lam) + 40)


def _readout_photons(model: ReadoutChainModel, rng, states: np.ndarray):
    """Summed photon counts for a batch of shots with given initial nuclear
    states, including stochastic flips along the chain.

    Each round of the flip loop draws a geometric step to the next flip for
    the shots still inside the chain, in shot order."""
    m = len(states)
    n = model.n_cycles
    q = model.flip_probability
    cur = states.astype(bool)
    if q == 0 or n == 0:
        n_one = np.where(cur, n, 0)  # cycles spent in state 1
    else:
        n_one = np.zeros(m, dtype=np.int64)
        left = np.arange(m)  # shots still inside the chain
        pos = np.zeros(m, dtype=np.int64)
        while left.size:
            steps = np.minimum(rng.geometric(q, size=left.size), n - pos)
            n_one[left[cur]] += steps[cur]
            pos += steps
            cur = ~cur
            inside = pos < n
            left, pos, cur = left[inside], pos[inside], cur[inside]
    lam = n_one * model.mean_photons_one + (n - n_one) * model.mean_photons_zero
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
    for sl, rng in _batches(n_shots, seed):
        states = np.full(sl.stop - sl.start, true_state)
        photons[sl] = _readout_photons(model, rng, states)
    if model.n_cycles == 0:
        return 0.5, photons
    classified = photons > thr
    correct = classified if true_state == 1 else ~classified
    return float(np.mean(correct)), photons


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything needed to simulate one magnetometry run. The DD sequence
    reaches a shot only through the budget: its duration t_c and contrast c."""

    budget: SensitivityBudget
    charge: ChargeReadoutModel = ChargeReadoutModel()
    readout: ReadoutChainModel = ReadoutChainModel()
    b_v: float = 112e-9  # applied field per AWG volt, T/V

    def __post_init__(self):
        if self.b_v <= 0:
            raise ValueError("b_v must be > 0")

    @property
    def shot_duration(self) -> float:
        return self.budget.t_c + self.budget.t_ir


@dataclass
class ExperimentRun:
    """Shot-level record of one simulated run."""

    signs: np.ndarray  # int8 +-1 chop sign per shot
    init_cycles: np.ndarray  # feedback cycles used per shot, narrowest unsigned
    photons: np.ndarray  # summed readout photons per shot, narrowest unsigned

    def csv_blocks(self):
        """The shot table as ``tables.table_blocks`` yields it, block by block."""
        return table_blocks(
            "shot,sign,init_cycles,photons",
            range(len(self.photons)),
            self.signs,
            self.init_cycles,
            self.photons,
        )

    def to_csv(self) -> str:
        return "".join(self.csv_blocks())


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
    workers: int = 1,
) -> ExperimentRun:
    """Simulate ``n_shots`` of the full protocol with a chopped test field.

    The applied field alternates +-signal shot by shot; ``photons`` and
    ``signs`` feed sensitivity_from_timeseries. Each fixed-size shot batch
    owns an independent counter-based stream, so any ``workers`` count
    produces identical results.

    The calling thread is worker 0 and ``workers - 1`` helper threads join
    it, none for ``workers=1``. Worker i simulates batches i, i + workers,
    ... and writes each into the record as soon as it is drawn, so no batch
    waits in a queue. The batch kernels' large numpy draws release the
    interpreter lock, which is what a helper thread overlaps.

    ``photons`` is stored in the narrowest unsigned dtype that holds
    ``photon_bound(config.readout)``; a batch that draws beyond it raises
    ``NumericalError`` rather than wrap.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    signs = np.ones(n_shots, dtype=np.int8)
    signs[1::2] = -1
    init_cycles = np.empty(n_shots, np.min_scalar_type(config.charge.max_cycles))
    bound = photon_bound(config.readout)
    photons = np.empty(n_shots, np.min_scalar_type(bound))

    def work(first):
        for sl, rng in _batches(n_shots, seed, first, workers):
            m = sl.stop - sl.start
            cycles, pho = _experiment_batch(config, signal * signs[sl], rng, m)
            if pho.max() > bound:
                raise NumericalError(
                    f"a shot drew {pho.max()} photons, beyond the record's "
                    f"bound of {bound}"
                )
            init_cycles[sl] = cycles
            photons[sl] = pho

    if workers == 1:
        work(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # off the CLI's start-up

        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            helpers = [pool.submit(work, first) for first in range(1, workers)]
            work(0)
            for helper in helpers:
                helper.result()
    return ExperimentRun(signs, init_cycles, photons)


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
    return ProtocolConfig(budget=budget)


def simulate_fringe(
    config: ProtocolConfig,
    volts,
    shots_per_point: int,
    seed: int,
):
    """Mean readout photons versus applied AWG voltage.

    Each point runs ``shots_per_point`` shots of a constant field on the
    calling thread, in the Philox batches ``run_experiment`` would draw for
    seed ``seed + i``. Returns (volts, mean counts); pair with fit_fringe to
    recover the field-per-volt coefficient.
    """
    if shots_per_point < 1:
        raise ValueError("shots_per_point must be >= 1")
    volts = np.asarray(volts, dtype=float)
    means = np.empty(len(volts))
    for i, v in enumerate(volts):
        total = 0
        for sl, rng in _batches(shots_per_point, seed + i):
            m = sl.stop - sl.start
            _, photons = _experiment_batch(config, config.b_v * v, rng, m)
            total += int(photons.sum())
        means[i] = total / shots_per_point
    return volts, means
