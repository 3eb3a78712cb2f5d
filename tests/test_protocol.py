import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scipy.special import pdtrc
from scipy.stats import chi2_contingency

from nvsense import protocol
from nvsense.errors import NumericalError
from nvsense.protocol import (
    BATCH_SIZE,
    ChargeReadoutModel,
    ExperimentRun,
    ProtocolConfig,
    ReadoutChainModel,
    _charge_init_batch,
    _poisson_tail,
    _readout_photons,
    nv3_config,
    photon_bound,
    run_experiment,
    simulate_charge_init,
    simulate_fringe,
    simulate_repetitive_readout,
)
from nvsense.sensitivity import (
    SensitivityBudget,
    fit_fringe,
    sensitivity_from_timeseries,
)
from oracles import (
    assignment_fidelity,
    charge_init_batch,
    demodulate,
    eta_model,
    readout_photons,
)

KERNEL_SEEDS = (0, 1, 7, 6001)
N_TRIALS = 200_000


def _philox(seed, stream=0):
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _assert_same_fraction(k, n, k_o, n_o):
    """Two binomial fractions k/n within 4 pooled standard errors."""
    p = (k + k_o) / (n + n_o)
    se = math.sqrt(p * (1 - p) * (1 / n + 1 / n_o))
    assert abs(k / n - k_o / n_o) <= 4 * se


def _assert_same_histogram(counts, counts_o, least=10):
    """A chi-squared test (p > 1e-3) that two histograms over the same bins
    come from one distribution; bins of fewer than ``least`` counts in all
    are merged into one."""
    counts, counts_o = np.asarray(counts), np.asarray(counts_o)
    big = counts + counts_o >= least
    table = np.array([counts[big], counts_o[big]])
    rest = np.array([[counts[~big].sum()], [counts_o[~big].sum()]])
    if rest.sum():
        table = np.hstack([table, rest])
    if table.shape[1] > 1:
        assert chi2_contingency(table, correction=False).pvalue > 1e-3


def _moments(x):
    """Mean, variance and the squared standard errors of each."""
    x = np.asarray(x, dtype=float)
    d = x - x.mean()
    var = float(np.mean(d**2))
    m4 = float(np.mean(d**4))
    return float(x.mean()), var, var / len(x), (m4 - var**2) / len(x)


class TestChargeModel:
    def test_identical_means_rejected(self):
        with pytest.raises(ValueError):
            ChargeReadoutModel(mean_photons_minus=0.3, mean_photons_zero=0.3)


class TestChargeInit:
    def test_feedback_raises_purity_above_equilibrium(self):
        res = simulate_charge_init(ChargeReadoutModel(), 40000, seed=1)
        assert res.purity_no_feedback == pytest.approx(0.74)
        assert res.purity >= 0.94

    def test_success_rate(self):
        res = simulate_charge_init(ChargeReadoutModel(), 40000, seed=1)
        assert res.success_fraction >= 0.99

    def test_uninformative_photons_give_equilibrium_purity(self):
        model = ChargeReadoutModel(
            mean_photons_minus=0.5, mean_photons_zero=0.4999
        )
        res = simulate_charge_init(model, 60000, seed=2)
        assert res.purity == pytest.approx(0.74, abs=0.01)

    def test_unreachable_threshold_kills_success(self):
        model = ChargeReadoutModel(threshold=50)
        res = simulate_charge_init(model, 5000, seed=3)
        assert res.success_fraction == 0.0
        assert math.isnan(res.purity)

    def test_underflowing_acceptance_accepts_nothing(self):
        # P(Poisson(0.5) >= 1000) is below the smallest double
        res = simulate_charge_init(ChargeReadoutModel(threshold=1000), 5000, seed=3)
        assert res.success_fraction == 0.0
        assert math.isnan(res.purity)

    @pytest.mark.parametrize("mu", [0.01, 0.05, 0.5, 3.0, 40.0])
    @pytest.mark.parametrize("k", [1, 2, 5, 30, 50])
    def test_poisson_tail_matches_scipy(self, k, mu):
        assert _poisson_tail(k, mu) == pytest.approx(pdtrc(k - 1, mu), rel=1e-12)

    def test_feedback_never_hurts_for_informative_models(self):
        for lam_minus in (0.2, 0.5, 1.0):
            model = ChargeReadoutModel(mean_photons_minus=lam_minus)
            res = simulate_charge_init(model, 20000, seed=4)
            assert res.purity >= res.purity_no_feedback

    def test_deterministic_given_seed(self):
        a = simulate_charge_init(ChargeReadoutModel(), 9000, seed=5)
        b = simulate_charge_init(ChargeReadoutModel(), 9000, seed=5)
        assert a.success_fraction == b.success_fraction
        assert a.purity == b.purity
        np.testing.assert_array_equal(a.cycles_histogram, b.cycles_histogram)


class TestKernelsMatchOracles:
    """The closed-form charge kernel and the readout kernel, which draws
    flip steps only for the shots still in the chain, give the
    distributions of the round-by-round loops in ``oracles``. Each side
    runs 200,000 trials on its own stream; a case that draws no geometric
    step must give the oracle's very arrays."""

    @pytest.mark.parametrize(
        "model",
        [
            ChargeReadoutModel(),
            ChargeReadoutModel(threshold=2),
            ChargeReadoutModel(max_cycles=3),
        ],
        ids=["defaults", "threshold-2", "max-cycles-3"],
    )
    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_charge_init(self, model, seed):
        got = _charge_init_batch(model, _philox(seed), N_TRIALS)
        want = charge_init_batch(model, _philox(seed, stream=1), N_TRIALS)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
        (acc, minus, cycles), (acc_o, minus_o, cycles_o) = got, want
        assert not np.any(minus & ~acc)
        if model.max_cycles == 3:
            assert not np.all(acc)  # some trials are never accepted
        _assert_same_fraction(acc.sum(), N_TRIALS, acc_o.sum(), N_TRIALS)
        _assert_same_fraction(minus.sum(), acc.sum(), minus_o.sum(), acc_o.sum())
        # cycles of acceptance, with the failed trials in bin 0
        _assert_same_histogram(
            np.bincount(np.where(acc, cycles, 0), minlength=model.max_cycles + 1),
            np.bincount(np.where(acc_o, cycles_o, 0), minlength=model.max_cycles + 1),
        )

    @pytest.mark.parametrize(
        "model",
        [
            ReadoutChainModel(),
            ReadoutChainModel(flip_probability=0.0),
            ReadoutChainModel(n_cycles=0),
            ReadoutChainModel(flip_probability=0.01),
        ],
        ids=["defaults", "no-flips", "no-cycles", "flip-0.01"],
    )
    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_readout_photons(self, model, seed):
        states = _philox(seed + 1).random(N_TRIALS) < 0.5
        if model.flip_probability == 0 or model.n_cycles == 0:
            rng, ref_rng = _philox(seed), _philox(seed)
            got = _readout_photons(model, rng, states)
            want = readout_photons(model, ref_rng, states)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(rng.random(8), ref_rng.random(8))
            return
        got = _readout_photons(model, _philox(seed), states)
        want = readout_photons(model, _philox(seed, stream=1), states)
        assert got.dtype == want.dtype
        (mean, var, mean_se2, var_se2), (mean_o, var_o, mean_se2_o, var_se2_o) = (
            _moments(got),
            _moments(want),
        )
        assert abs(mean - mean_o) <= 4 * math.sqrt(mean_se2 + mean_se2_o)
        assert abs(var - var_o) <= 4 * math.sqrt(var_se2 + var_se2_o)


class TestReadoutChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReadoutChainModel(mean_photons_one=0.01, mean_photons_zero=0.02)
        with pytest.raises(ValueError):
            ReadoutChainModel(flip_probability=1.0)

    def test_default_fidelity_near_eighty_four_percent(self):
        model = ReadoutChainModel()
        f1, _ = simulate_repetitive_readout(model, 1, 40000, seed=2)
        f0, _ = simulate_repetitive_readout(model, 0, 40000, seed=3)
        assert 0.5 * (f1 + f0) == pytest.approx(0.84, abs=0.02)

    def test_analytic_fidelity_in_open_interval(self):
        f = assignment_fidelity(ReadoutChainModel())
        assert 0.5 < f < 1.0

    def test_analytic_matches_monte_carlo_at_low_flip_rate(self):
        model = ReadoutChainModel(flip_probability=2e-5)
        f1, _ = simulate_repetitive_readout(model, 1, 40000, seed=4)
        f0, _ = simulate_repetitive_readout(model, 0, 40000, seed=5)
        assert assignment_fidelity(model) == pytest.approx(
            0.5 * (f1 + f0), abs=0.01
        )

    def test_zero_cycles_coin_flip(self):
        model = ReadoutChainModel(n_cycles=0)
        assert assignment_fidelity(model) == 0.5
        f, _ = simulate_repetitive_readout(model, 1, 1000, seed=6)
        assert f == 0.5

    def test_no_flips_fidelity_approaches_one(self):
        model = ReadoutChainModel(flip_probability=0.0, n_cycles=20000)
        assert assignment_fidelity(model) > 0.999

    def test_monotone_in_cycles_without_flips(self):
        fids = [
            assignment_fidelity(ReadoutChainModel(flip_probability=0.0, n_cycles=n))
            for n in (100, 500, 1000, 2500, 5000)
        ]
        assert all(b >= a for a, b in zip(fids, fids[1:]))

    def test_interior_optimum_with_flips(self):
        ns = np.array([20, 50, 200, 1000, 2500, 6000, 15000])
        fids = [
            assignment_fidelity(
                ReadoutChainModel(flip_probability=1e-3, n_cycles=int(n))
            )
            for n in ns
        ]
        peak = int(np.argmax(fids))
        assert 0 < peak < len(ns) - 1


class TestProtocolConfig:
    def test_nonpositive_b_v_rejected(self):
        budget = SensitivityBudget(
            t_c=1.0e-3, c=0.4, f_i=0.92, f_r=0.84, t_ir=1.5e-3
        )
        with pytest.raises(ValueError, match="b_v must be > 0"):
            ProtocolConfig(budget, b_v=0.0)

    def test_nv3_preset(self):
        cfg = nv3_config()
        assert cfg.shot_duration == pytest.approx(3.336e-3)
        assert cfg.budget.t_c == 1.8e-3


class TestRunExperiment:
    def test_deterministic_byte_identical(self):
        cfg = nv3_config()
        a = run_experiment(cfg, 1e-9, 5000, seed=1)
        b = run_experiment(cfg, 1e-9, 5000, seed=1)
        assert a.to_csv() == b.to_csv()
        for name in ("signs", "init_cycles", "photons"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_batch_prefix_invariance(self):
        # shots are generated in fixed-size batches with independent streams,
        # so a longer run reproduces a shorter run as its prefix exactly
        cfg = nv3_config()
        short = run_experiment(cfg, 1e-9, BATCH_SIZE, seed=2)
        long = run_experiment(cfg, 1e-9, BATCH_SIZE + 500, seed=2)
        np.testing.assert_array_equal(
            short.photons, long.photons[:BATCH_SIZE]
        )

    def test_zero_signal_flat(self):
        cfg = nv3_config()
        run = run_experiment(cfg, 0.0, 40000, seed=3)
        x = demodulate(run.photons, run.signs)
        sem = np.std(x, ddof=1) / np.sqrt(len(x))
        assert abs(np.mean(x)) < 4 * sem

    @pytest.mark.parametrize("max_cycles, dtype", [(100, np.uint8), (300, np.uint16)])
    def test_per_shot_arrays_keep_their_natural_width(self, max_cycles, dtype):
        cfg = nv3_config()
        cfg = ProtocolConfig(
            cfg.budget, charge=ChargeReadoutModel(max_cycles=max_cycles)
        )
        run = run_experiment(cfg, 1e-9, 5001, seed=8)
        assert run.signs.dtype == np.int8
        assert run.init_cycles.dtype == dtype
        # 680 photons bound a shot of the default chain
        assert run.photons.dtype == np.uint16
        signs = np.where(np.arange(5001) % 2 == 0, 1, -1)
        np.testing.assert_array_equal(run.signs, signs)

    def test_photons_widen_with_the_readout_bound(self):
        # 30 photons per state-1 cycle: the bound is 85,995, past uint16
        cfg = nv3_config()
        readout = ReadoutChainModel(mean_photons_one=30.0)
        cfg = ProtocolConfig(cfg.budget, readout=readout)
        run = run_experiment(cfg, 1e-9, 5001, seed=8)
        assert photon_bound(readout) == 85995
        assert run.photons.dtype == np.uint32
        assert run.photons.max() > np.iinfo(np.uint16).max

    def test_photon_bound_is_far_beyond_any_draw(self):
        # lam + 40 sqrt(lam) + 40 for the largest Poisson mean of a shot;
        # the tail beyond it is below 1e-120 at any lam
        assert photon_bound(ReadoutChainModel()) == 680
        for lam in (1e-3, 0.3, 150.0, 1e4):
            model = ReadoutChainModel(mean_photons_one=lam / 2500, mean_photons_zero=0)
            bound = photon_bound(model)
            assert pdtrc(bound, lam) < 1e-120

    def test_draw_beyond_the_bound_raises(self, monkeypatch):
        cfg = nv3_config()
        bound = photon_bound(cfg.readout)

        def too_many(model, rng, states):
            photons = _readout_photons(model, rng, states)
            photons[-1] = bound + 1
            return photons

        monkeypatch.setattr(protocol, "_readout_photons", too_many)
        with pytest.raises(NumericalError, match="681 photons"):
            run_experiment(cfg, 1e-9, 5000, seed=8)

    def test_workers_beyond_the_cores_write_the_serial_record(self):
        # five workers stride over 13 batches, the last one short, into
        # disjoint slices of the record; thread switches are forced often
        cfg = nv3_config()
        n = 12 * BATCH_SIZE + 7
        serial = run_experiment(cfg, 1e-9, n, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = run_experiment(cfg, 1e-9, n, seed=3, workers=5)
        finally:
            sys.setswitchinterval(interval)
        for name in ("signs", "init_cycles", "photons"):
            np.testing.assert_array_equal(getattr(parallel, name), getattr(serial, name))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_holds_little_beyond_its_record(self, workers):
        # each worker writes a batch into the record as soon as it is drawn,
        # so beyond the 4.8 MB record a run holds about one batch's
        # temporaries per worker. Over seeds 0-11 the excess read 0.45-0.46
        # MB with one worker and 0.88-0.90 MB with two; a pool whose workers
        # queued their batches for the calling thread read 2.5-2.9 and
        # 1.5-5.1 MB
        cfg = nv3_config()
        run_experiment(cfg, 1e-9, 20_000, seed=0, workers=workers)  # lazy imports
        tracemalloc.start()
        try:
            run = run_experiment(cfg, 1e-9, 1_200_000, seed=7, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = run.signs.nbytes + run.init_cycles.nbytes + run.photons.nbytes
        assert peak - record < 0.6e6 * workers

    def test_csv_shape(self):
        cfg = nv3_config()
        run = run_experiment(cfg, 1e-9, 100, seed=4)
        lines = run.to_csv().splitlines()
        assert lines[0] == "shot,sign,init_cycles,photons"
        assert len(lines) == 101


class TestFringeRoundTrip:
    def test_recovers_configured_field_per_volt(self):
        cfg = nv3_config()
        volts = np.linspace(0.0, 0.4, 25)
        v, counts = simulate_fringe(cfg, volts, shots_per_point=4000, seed=5)
        fit = fit_fringe(v, counts, cfg.budget.t_c)
        assert fit.b_v == pytest.approx(cfg.b_v, rel=0.03)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("points", [8, 25])
    def test_sweep_under_a_period_is_refused(self, points, seed):
        # 0.05 V is 0.28 of a fringe period; the fit can still report a k
        # spanning a period, but no better than a parabola does
        cfg = nv3_config()
        volts = np.linspace(0.0, 0.05, points)
        v, counts = simulate_fringe(cfg, volts, shots_per_point=1000, seed=seed)
        with pytest.raises(NumericalError, match="no smaller residual than a parabola"):
            fit_fringe(v, counts, cfg.budget.t_c)

    @pytest.mark.parametrize("top", [1e-100, 1e160], ids=["fourth-power-underflows", "square-overflows"])
    def test_sweep_the_parabola_cannot_scale_is_refused(self, top):
        volts = np.linspace(0.0, top, 8)
        counts = 1.0 + np.sin(np.arange(8.0))
        with pytest.raises(ValueError, match="cannot be checked against a parabola"):
            fit_fringe(volts, counts, 1.8e-3)

    def test_point_draws_the_streams_of_run_experiment(self):
        # at zero field the chop sign does nothing, so point i of the fringe
        # is the mean of a run_experiment on seed + i, across a batch edge
        cfg = nv3_config()
        n = BATCH_SIZE + 500
        _, counts = simulate_fringe(cfg, [0.0, 0.0], shots_per_point=n, seed=5)
        run = run_experiment(cfg, 0.0, n, seed=6)
        assert counts[1] == np.mean(run.photons)


class TestEtaModel:
    """The Monte Carlo's eta asymptote against ``oracles.eta_model``.

    At 1.2 M shots a run's asymptote scatters about the model with an sd
    of 0.9-1.1% (nv3, seeds 0-119) and 0.8% (stressed, seeds 0-39), and
    the mean of each 8-seed group of seeds 0-39 lies within 0.55% of it.
    The 1.5% bound on the mean of seeds 0-7 is 4 of those sds over
    sqrt(8); a flip rate 20% off moves the model by 4.7%.
    """

    @pytest.mark.parametrize(
        "charge, readout, signal",
        [
            (ChargeReadoutModel(), ReadoutChainModel(), 1e-9),
            # a capped feedback loop (P_acc 0.66), a faster-flipping chain
            # and a 0.95 rad phase, so every factor of the model is exercised
            (
                ChargeReadoutModel(max_cycles=3),
                ReadoutChainModel(flip_probability=1e-3, n_cycles=800),
                3e-9,
            ),
        ],
        ids=["nv3", "stressed"],
    )
    def test_asymptote_matches_model(self, charge, readout, signal):
        cfg = replace(nv3_config(), charge=charge, readout=readout)
        asymptotes = []
        for seed in range(8):
            run = run_experiment(cfg, signal, 1_200_000, seed=seed, workers=2)
            asymptotes.append(
                sensitivity_from_timeseries(
                    run.photons, run.signs, signal, cfg.shot_duration
                )[2]
            )
        assert np.mean(asymptotes) == pytest.approx(
            eta_model(cfg, signal), rel=0.015
        )

    def test_model_of_nv3(self):
        # the budget formula gives 0.554 nT/sqrt(Hz): its F_r stands in for
        # the readout chain the Monte Carlo simulates
        assert eta_model(nv3_config(), 1e-9) == pytest.approx(0.61254e-9, rel=1e-4)


class TestSensitivityRun:
    def test_eta_asymptote_and_flat_slope(self):
        cfg = nv3_config()
        # Criterion 8's length: |slope| <= 0.05 is 4 spreads over seeds here
        run = run_experiment(cfg, 1e-9, 1_200_000, seed=6)
        times, eta, asym = sensitivity_from_timeseries(
            run.photons, run.signs, 1e-9, cfg.shot_duration
        )
        assert asym == pytest.approx(0.59e-9, rel=0.15)
        tail = times >= times[-1] / 10.0
        slope = np.polyfit(np.log(times[tail]), np.log(eta[tail]), 1)[0]
        assert abs(slope) <= 0.05

    def test_eta_pass_holds_no_per_shot_float_array(self):
        # the window sums take int64 slices of at most 2**14 shots, so the
        # pass peaks below a quarter of one float64 copy of the run
        cfg = nv3_config()
        n = 1_200_000
        run = run_experiment(cfg, 1e-9, n, seed=6, workers=2)
        # a short pass first, so that the modules numpy imports lazily
        # (np.unique loads numpy.ma) are not counted
        sensitivity_from_timeseries(run.photons[:200], run.signs[:200], 1e-9, 1e-3)
        tracemalloc.start()
        try:
            sensitivity_from_timeseries(run.photons, run.signs, 1e-9, cfg.shot_duration)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 8 / 4
