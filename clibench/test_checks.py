"""Each output check accepts correct outputs and rejects a corrupted one.

    python3 -m pytest clibench/test_checks.py
"""

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer

FIXTURES = Path(__file__).resolve().parent / "fixtures"


# ---------------------------------------------------------------- pulse design


@pytest.fixture
def pulse_dir(tmp_path):
    """A ``grape`` output for the pi-about-x problem (10 pieces)."""
    return Path(shutil.copytree(FIXTURES / "pi_x", tmp_path / "pi_x"))


def scale_piece(out_dir, piece, factor):
    path = out_dir / "waveform.csv"
    lines = path.read_text().splitlines()
    k, re, im = lines[2 + piece].split(",")
    lines[2 + piece] = f"{k},{float(re) * factor!r},{float(im) * factor!r}"
    path.write_text("\n".join(lines) + "\n")


def test_pulse_output_passes(pulse_dir):
    assert checks.check_pulse(pulse_dir, math.pi, 10) == []


def test_budget_formula_gives_the_paper_figure():
    assert checks.budget_eta() == pytest.approx(0.554e-9, rel=1e-3)


def test_pulse_piece_over_the_rabi_limit_is_rejected(pulse_dir):
    scale_piece(pulse_dir, 5, 2.0)
    problems = checks.check_pulse(pulse_dir, math.pi, 10)
    assert any("20 MHz" in p for p in problems)
    assert any("grape_summary" in p for p in problems)


def test_pulse_piece_scaled_within_the_limit_is_rejected(pulse_dir):
    scale_piece(pulse_dir, 5, 1.01)
    problems = checks.check_pulse(pulse_dir, math.pi, 10)
    assert problems and all("20 MHz" not in p for p in problems)


def test_pulse_summary_that_overstates_fidelity_is_rejected(pulse_dir):
    path = pulse_dir / "grape_summary.json"
    summary = json.loads(path.read_text())
    summary["fidelity"] += 1e-6
    path.write_text(json.dumps(summary))
    assert checks.check_pulse(pulse_dir, math.pi, 10)


# ---------------------------------------------------------------- spectroscopy

# the passband grid of ``gen noise``: 12 centers from 40 kHz to 2 MHz
OMEGA = 2 * np.pi * np.geomspace(40e3, 2e6, 12)


def write_spectrum(out_dir, s):
    out_dir.mkdir(exist_ok=True)
    rows = "".join(f"{float(w)!r},{float(v)!r}\n" for w, v in zip(OMEGA, s))
    (out_dir / "spectrum.csv").write_text("omega_rad_s,s_t2_per_hz\n" + rows)


def test_model_spectrum_passes(tmp_path):
    write_spectrum(tmp_path, checks.model_spectrum(OMEGA) * 1.05)
    assert checks.check_spectrum(tmp_path) == []


def test_one_band_scaled_by_1p2_is_rejected(tmp_path):
    s = checks.model_spectrum(OMEGA)
    s[3] *= 1.2
    write_spectrum(tmp_path, s)
    assert len(checks.check_spectrum(tmp_path)) == 1


def test_bands_without_their_third_harmonic_are_not_judged(tmp_path):
    s = checks.model_spectrum(OMEGA)
    s[-1] *= 1.2
    write_spectrum(tmp_path, s)
    assert checks.check_spectrum(tmp_path) == []


def test_model_floor_is_21p6_db_below_the_erl_line():
    line = checks.erl_noise_line(31.7e-9)
    floor = checks.model_spectrum(1e15)
    assert 10 * math.log10(line / floor) == pytest.approx(21.6, abs=1e-6)


@pytest.mark.parametrize("depth_nm, tol_nm", checks.DEPTH_SUITE)
def test_depth_within_and_outside_its_quoted_error(tmp_path, depth_nm, tol_nm):
    report = tmp_path / "depth_report.json"
    report.write_text(json.dumps({"d_nv_m": (depth_nm + 0.9 * tol_nm) * 1e-9}))
    assert checks.check_depth(tmp_path, depth_nm, tol_nm) == []
    report.write_text(json.dumps({"d_nv_m": (depth_nm - 2 * tol_nm) * 1e-9}))
    assert checks.check_depth(tmp_path, depth_nm, tol_nm)


def test_depth_stems_match_the_cli_suite_names():
    assert [checks.depth_stem(d) for d, _ in checks.DEPTH_SUITE] == [
        "depth_17p3nm", "depth_26p3nm", "depth_31p7nm",
        "depth_49p0nm", "depth_64p3nm", "depth_80p3nm",
    ]


# ---------------------------------------------------------------- sensing run

N_SHOTS = 1000


@pytest.fixture
def sense_dir(tmp_path):
    """A ``sense`` output that passes: eta 9% over the budget, flat in t."""
    budget = {
        "eta_asymptote_t_per_sqrt_hz": 1.09 * checks.budget_eta(),
        "fitted_b_v_t_per_v": 112.5e-9,
    }
    (tmp_path / "budget.json").write_text(json.dumps(budget))
    write_eta(tmp_path, exponent=0.0)
    rows = "".join(f"{i},{1 - 2 * (i % 2)},1,{i % 7}\n" for i in range(N_SHOTS))
    (tmp_path / "shots.csv").write_text("shot,sign,init_cycles,photons\n" + rows)
    return tmp_path


def write_eta(out_dir, exponent):
    t = np.geomspace(0.33, 4000.0, 50)
    eta = 0.6e-9 * (t / t[0]) ** exponent
    rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, eta))
    (out_dir / "eta_vs_time.csv").write_text("averaging_time_s,eta_t_per_sqrt_hz\n" + rows)


def edit_budget(out_dir, **changes):
    path = out_dir / "budget.json"
    budget = json.loads(path.read_text())
    budget.update(changes)
    path.write_text(json.dumps(budget))


def test_sense_output_passes(sense_dir):
    assert checks.check_sense(sense_dir, N_SHOTS) == []


def test_dropped_shot_row_is_rejected(sense_dir):
    path = sense_dir / "shots.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert checks.check_sense(sense_dir, N_SHOTS) == [f"shots.csv holds {N_SHOTS - 1} rows, configured {N_SHOTS}"]


def test_eta_off_the_budget_is_rejected(sense_dir):
    edit_budget(sense_dir, eta_asymptote_t_per_sqrt_hz=1.2 * checks.budget_eta())
    assert len(checks.check_sense(sense_dir, N_SHOTS)) == 1


def test_eta_that_does_not_average_down_is_rejected(sense_dir):
    write_eta(sense_dir, exponent=0.1)
    assert len(checks.check_sense(sense_dir, N_SHOTS)) == 1


def test_b_v_off_by_more_than_2_percent_is_rejected(sense_dir):
    edit_budget(sense_dir, fitted_b_v_t_per_v=114.5e-9)
    assert len(checks.check_sense(sense_dir, N_SHOTS)) == 1


def test_rerun_checks(sense_dir):
    before = checks.digests(sense_dir)
    (sense_dir / "manifest.json").write_text("{}")
    said = "outputs reproduced byte-identically\n"
    assert checks.check_rerun(before, checks.digests(sense_dir), said) == []
    assert checks.check_rerun(before, checks.digests(sense_dir), "")
    (sense_dir / "budget.json").write_text("{}")
    assert checks.check_rerun(before, checks.digests(sense_dir), said) == ["rerun changed budget.json"]


# ---------------------------------------------------------------- tracing


def span(name, start, end, parent, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent, "counts": counts}


def test_per_layer_totals_and_self_times():
    step = {
        "output_bytes": 10,
        "spans": [
            span("cli.import", 0.0, 1.5, None),
            span("cli.rerun", 2.0, 10.0, None),
            span("cli.sense", 2.5, 9.5, 1),
            span("protocol.run_experiment", 3.0, 5.0, 2, shots=1000),
            span("manifest.sha256_file", 6.0, 6.5, 2, bytes=64),
            span("manifest.RunManifest.verify_outputs", 9.5, 10.0, 1),
            span("manifest.sha256_file", 9.6, 9.8, 5, bytes=64),
        ],
    }
    out = tracer.per_layer([step, step])
    assert out["cli.import_s"] == pytest.approx(3.0)
    assert out["cli.rerun.s"] == pytest.approx(16.0)
    assert out["cli.rerun.self_s"] == pytest.approx(16.0 - 2 * 7.5)
    assert out["cli.sense.self_s"] == pytest.approx(2 * (7.0 - 2.5))
    assert out["manifest.sha256_file.calls"] == 4
    assert out["manifest.sha256_file.bytes"] == 256
    assert out["protocol.run_experiment.shots_per_s"] == pytest.approx(500.0)
    assert out["cli.output_bytes"] == 20
    assert out["grape.optimize.calls"] == 0


def test_nested_spans_of_one_name_count_once():
    step = {
        "output_bytes": 0,
        "spans": [span("cli.rerun", 0.0, 4.0, None), span("cli.rerun", 1.0, 3.0, 0)],
    }
    out = tracer.per_layer([step])
    assert out["cli.rerun.s"] == pytest.approx(4.0)
    assert out["cli.rerun.calls"] == 2


def test_traced_step_wraps_importing_modules_and_restores_them(tmp_path, monkeypatch):
    cli = pytest.importorskip("nvsense.cli")
    synth = pytest.importorskip("nvsense.synth")
    originals = (cli.fit_depth, synth.coherence_from_spectrum, cli.main.commands["erl"].callback)
    monkeypatch.setattr("sys.argv", ["pytest"])
    spans_path = tmp_path / "spans.json"
    code = tracer.run_step(spans_path, ["--out", str(tmp_path / "erl"), "erl"])
    assert code == 0
    names = [s["name"] for s in json.loads(spans_path.read_text())["spans"]]
    assert names[0] == "cli.import" and names[1] == "cli.erl"
    assert "manifest.sha256_file" in names
    assert (cli.fit_depth, synth.coherence_from_spectrum, cli.main.commands["erl"].callback) == originals

    t = tracer.Tracer()
    t.install()
    try:
        assert cli.fit_depth is not originals[0]
        assert synth.coherence_from_spectrum is not originals[1]
        assert cli.fit_depth is sys.modules["nvsense.depth"].fit_depth
    finally:
        t.uninstall()
    assert cli.fit_depth is originals[0]


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(tracer.per_layer([])) + ["trace.overhead_s"]
