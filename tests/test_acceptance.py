"""End-to-end acceptance gate.

Each test pins one headline capability of the toolkit at its stated
tolerance and, where a runtime budget applies, asserts it. Tolerances are
frozen here on purpose: loosening them requires a deliberate edit.
"""

import math
import time

import numpy as np
import pytest
from scipy.constants import hbar, mu_0

from nvsense.depth import fit_depth
from nvsense.grape import (
    GrapeProblem,
    Waveform,
    fidelity,
    grape_gradient,
    optimize,
    rotation_target,
)
from nvsense.noisespec import db_below_erl, erl_noise_line, reconstruct_spectrum
from nvsense.protocol import (
    ChargeReadoutModel,
    ReadoutChainModel,
    nv3_config,
    run_experiment,
    simulate_charge_init,
    simulate_repetitive_readout,
)
from nvsense.sensitivity import (
    SensitivityBudget,
    db_below_quantum_limit,
    erl_compute,
    eta_from_budget,
    load_reference_magnetometers,
    erl_table_check,
    sensitivity_from_timeseries,
)
from nvsense.sequences import DDSequence, coherence_from_spectrum
from nvsense.synth import (
    lorentzian_spectrum,
    make_coherence_family,
    make_depth_suite,
    nv3_floor_spectrum,
)

ETA_NV3 = 0.59e-9  # T/sqrt(Hz)
L_NV3 = 31.7e-9  # m


class TestCriterion1EnergyResolution:
    def test_headline_value(self):
        e_r = erl_compute(ETA_NV3, L_NV3)
        assert e_r == pytest.approx(0.042, rel=0.02)
        assert db_below_quantum_limit(e_r) == pytest.approx(13.8, abs=0.15)


class TestCriterion2ReferenceTableAudit:
    def test_all_rows_within_ten_percent(self):
        report = erl_table_check(load_reference_magnetometers())
        assert len(report) == 24
        assert all(row["consistent"] for row in report)
        assert max(abs(row["relative_deviation"]) for row in report) <= 0.10

    def test_spot_values(self):
        rows = erl_table_check(load_reference_magnetometers())
        assert rows[0]["e_r_computed_hbar"] == pytest.approx(0.68, rel=0.02)
        assert rows[1]["e_r_computed_hbar"] == pytest.approx(1.24, rel=0.02)


class TestCriterion3SensitivityBudget:
    def test_timing_budget_reproduces_eta(self):
        # contrast from the stretched coherence envelope at the
        # interrogation time: C = exp(-(T_C / T2)^1.5) with T2 = 2.0 ms
        budget = SensitivityBudget(
            t_c=1.8e-3,
            c=float(np.exp(-((1.8e-3 / 2.0e-3) ** 1.5))),
            f_i=0.92,
            f_r=0.84,
            t_ir=3.336e-3 - 1.8e-3,
        )
        assert eta_from_budget(budget) == pytest.approx(ETA_NV3, rel=0.10)


class TestCriterion4NoiseRoundTrip:
    def test_lorentzian_recovered_within_ten_percent(self):
        t0 = time.monotonic()
        truth = lorentzian_spectrum(8e-19, 2 * np.pi * 120e3)
        points = []
        for curve in make_coherence_family(truth, n_list=(16, 64, 128, 512)):
            for t, c in zip(curve.times, curve.coherence):
                if 0.05 < c < 0.95:
                    points.append(
                        (DDSequence(curve.family, curve.n_pulses, t), c)
                    )
        spec, info = reconstruct_spectrum(points, n=1)
        assert info["iterations"] == 1
        rel = np.abs(spec.s - truth(spec.omega)) / truth(spec.omega)
        assert np.max(rel) < 0.10
        assert time.monotonic() - t0 < 10.0


class TestCriterion5ErlNoiseLine:
    def test_exact_formula(self):
        line = erl_noise_line(L_NV3)
        assert line == 2 * mu_0 * hbar / (math.e * L_NV3**3)

    def test_synthetic_floor_reports_calibrated_db(self):
        truth = nv3_floor_spectrum(db_below=21.6, l_eff=L_NV3)
        points = []
        for n in (128, 512):
            for f0 in np.geomspace(1e6, 8e6, 10):
                seq = DDSequence("XY16", n, n / (2 * f0))
                c = coherence_from_spectrum(truth, seq, k_max=20000)
                if 0.01 < c < 0.999:
                    points.append((seq, c))
        spec, _ = reconstruct_spectrum(points, n=1)
        # the surface Lorentzian is negligible above 4 MHz; the plateau
        # there is the calibrated floor
        plateau = float(np.median(spec.s[spec.omega >= 2 * np.pi * 4e6]))
        assert db_below_erl(plateau, L_NV3) == pytest.approx(21.6, abs=0.2)


class TestCriterion6DepthSuite:
    def test_six_depths_within_quoted_errors(self):
        t0 = time.monotonic()
        for data, depth, tol in make_depth_suite():
            fit = fit_depth(data)
            assert fit.d_nv == pytest.approx(depth, abs=tol), (
                f"depth {depth * 1e9:.1f} nm"
            )
        assert time.monotonic() - t0 < 30.0


class TestCriterion7PulseShaping:
    def test_gate_fidelities_and_gradient(self):
        t0 = time.monotonic()
        for angle, n_pieces in ((np.pi, 10), (np.pi / 2, 14)):
            problem = GrapeProblem(
                target=rotation_target(angle, "x"),
                n_pieces=n_pieces,
                piece_duration=25e-9,
                max_rabi_hz=20e6,
            )
            result = optimize(problem, seed=0, target_infidelity=5e-5)
            assert fidelity(problem, result.waveform) >= 0.9999

        rng = np.random.default_rng(7)
        problem = GrapeProblem(
            target=rotation_target(np.pi),
            n_pieces=5,
            piece_duration=25e-9,
            max_rabi_hz=20e6,
        )
        step = 1e-6 * problem.max_rabi_hz
        for _ in range(100):
            wf = Waveform(
                rng.uniform(-15e6, 15e6, 5),
                rng.uniform(-15e6, 15e6, 5),
                25e-9,
            )
            gre, gim = grape_gradient(problem, wf)
            fre = np.empty(5)
            fim = np.empty(5)
            for k in range(5):
                for arr, out in ((wf.real_rabi_hz, fre), (wf.imag_rabi_hz, fim)):
                    orig = arr[k]
                    arr[k] = orig + step
                    fp = fidelity(problem, wf)
                    arr[k] = orig - step
                    fm = fidelity(problem, wf)
                    arr[k] = orig
                    out[k] = (fp - fm) / (2 * step)
            scale = max(np.abs(np.concatenate([fre, fim])).max(), 1e-12)
            np.testing.assert_allclose(gre, fre, atol=1e-5 * scale, rtol=1e-5)
            np.testing.assert_allclose(gim, fim, atol=1e-5 * scale, rtol=1e-5)
        assert time.monotonic() - t0 < 60.0


class TestCriterion8ProtocolSimulator:
    def test_charge_feedback_purity(self):
        model = ChargeReadoutModel()
        result = simulate_charge_init(model, 50000, seed=0)
        assert model.equilibrium_fraction == pytest.approx(0.74)
        assert result.purity >= 0.94
        assert result.purity_no_feedback == pytest.approx(0.74, abs=0.01)

    def test_repetitive_readout_fidelity(self):
        model = ReadoutChainModel()
        assert model.n_cycles == 2500
        f1, _ = simulate_repetitive_readout(model, 1, 40000, seed=2)
        f0, _ = simulate_repetitive_readout(model, 0, 40000, seed=3)
        assert 0.5 * (f1 + f0) == pytest.approx(0.84, abs=0.02)

    def test_full_run_eta_and_flat_slope(self):
        t0 = time.monotonic()
        config = nv3_config()
        # the length clibench judges the same bound at: over seeds 0-39 the
        # slope's spread is 0.0125 here (0.031 at 180,000 shots), which puts
        # the 0.05 bound 4 spreads out
        run = run_experiment(config, 1e-9, 1_200_000, seed=6)
        times, eta, asym = sensitivity_from_timeseries(
            run.photons, run.signs, 1e-9, config.shot_duration
        )
        assert asym == pytest.approx(ETA_NV3, rel=0.15)
        last = times >= times[-1] / 10
        slope = np.polyfit(np.log(times[last]), np.log(eta[last]), 1)[0]
        assert abs(slope) <= 0.05
        assert time.monotonic() - t0 < 300.0


class TestCriterion9Determinism:
    def test_repeated_runs_byte_identical(self):
        config = nv3_config()
        a = run_experiment(config, 1e-9, 30000, seed=6)
        b = run_experiment(config, 1e-9, 30000, seed=6)
        assert a.to_csv() == b.to_csv()
        for name in ("signs", "init_cycles", "photons"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_multi_worker_matches_serial(self):
        config = nv3_config()
        serial = run_experiment(config, 1e-9, 30000, seed=6, workers=1)
        parallel = run_experiment(config, 1e-9, 30000, seed=6, workers=4)
        assert serial.to_csv() == parallel.to_csv()

    def test_charge_and_readout_streams_deterministic(self):
        model = ChargeReadoutModel()
        r1 = simulate_charge_init(model, 20000, seed=5)
        r2 = simulate_charge_init(model, 20000, seed=5)
        assert r1.purity == r2.purity
        np.testing.assert_array_equal(r1.cycles_histogram, r2.cycles_histogram)
        chain = ReadoutChainModel()
        f1, p1 = simulate_repetitive_readout(chain, 1, 20000, seed=5)
        f2, p2 = simulate_repetitive_readout(chain, 1, 20000, seed=5)
        assert f1 == f2
        np.testing.assert_array_equal(p1, p2)
