import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "nvsense"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    return proc


@pytest.fixture(scope="module")
def depth_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen_depth")
    run_cli("--seed", 0, "--out", out, "gen", "depth", "--noise", "0.005")
    return out


@pytest.fixture(scope="module")
def noise_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen_noise")
    run_cli("--seed", 0, "--out", out, "gen", "noise")
    return out


class TestBasics:
    def test_help_exits_zero(self):
        proc = run_cli("--help")
        assert "depth" in proc.stdout and "erl" in proc.stdout

    def test_version(self):
        proc = run_cli("--version")
        assert "0.1.0" in proc.stdout

    def test_unknown_command_usage_error(self):
        proc = run_cli("frobnicate", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("module", ["scipy.stats", "scipy.integrate"])
    def test_import_leaves_module_out(self, module):
        code = f"import sys, nvsense.cli; print({module!r} in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"


class TestGen:
    def test_depth_outputs(self, depth_bundle):
        assert (depth_bundle / "depth_dataset.csv").exists()
        assert (depth_bundle / "depth_dataset.json").exists()
        manifest = json.loads((depth_bundle / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert set(manifest["outputs"]) == {
            str(depth_bundle / "depth_dataset.csv"),
            str(depth_bundle / "depth_dataset.json"),
        }

    def test_depth_deterministic(self, depth_bundle, tmp_path):
        run_cli("--seed", 0, "--out", tmp_path, "gen", "depth", "--noise", "0.005")
        a = (depth_bundle / "depth_dataset.csv").read_bytes()
        b = (tmp_path / "depth_dataset.csv").read_bytes()
        assert a == b

    def test_depth_seed_changes_noise(self, depth_bundle, tmp_path):
        run_cli("--seed", 1, "--out", tmp_path, "gen", "depth", "--noise", "0.005")
        a = (depth_bundle / "depth_dataset.csv").read_bytes()
        b = (tmp_path / "depth_dataset.csv").read_bytes()
        assert a != b

    def test_zero_pulses_is_data_error(self, tmp_path):
        proc = run_cli("--out", tmp_path, "gen", "depth", "--pulses", 0, check=False)
        assert proc.returncode == 3

    def test_noise_outputs(self, noise_bundle):
        csvs = sorted(p.name for p in noise_bundle.glob("coherence_*.csv"))
        assert csvs == [
            "coherence_n128.csv",
            "coherence_n16.csv",
            "coherence_n512.csv",
            "coherence_n64.csv",
        ]
        for p in noise_bundle.glob("coherence_*.csv"):
            assert p.with_suffix(".json").exists()


class TestDepthCommand:
    def test_round_trip(self, depth_bundle, tmp_path):
        run_cli(
            "--out",
            tmp_path,
            "depth",
            depth_bundle / "depth_dataset.csv",
            depth_bundle / "depth_dataset.json",
        )
        report = json.loads((tmp_path / "depth_report.json").read_text())
        assert report["d_nv_m"] == pytest.approx(31.7e-9, abs=1.1e-9)
        curve = (tmp_path / "depth_fit_curve.csv").read_text().splitlines()
        assert curve[0] == "tau_s,coherence_fit"
        assert len(curve) == 42

    def test_malformed_csv_is_data_error(self, depth_bundle, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,header\n1,2,3\n")
        proc = run_cli(
            "--out",
            tmp_path,
            "depth",
            bad,
            depth_bundle / "depth_dataset.json",
            check=False,
        )
        assert proc.returncode == 3

    def test_flat_data_is_numerical_error(self, depth_bundle, tmp_path):
        src = (depth_bundle / "depth_dataset.csv").read_text().splitlines()
        flat = [src[0]]
        for line in src[1:]:
            tau = line.split(",")[0]
            flat.append(f"{tau},0.99,0.005")
        bad = tmp_path / "flat.csv"
        bad.write_text("\n".join(flat) + "\n")
        proc = run_cli(
            "--out",
            tmp_path,
            "depth",
            bad,
            depth_bundle / "depth_dataset.json",
            check=False,
        )
        assert proc.returncode == 4

    def test_zero_pulses_is_data_error(self, depth_bundle, tmp_path):
        meta = json.loads((depth_bundle / "depth_dataset.json").read_text())
        meta["N"] = 0
        sidecar = tmp_path / "zero.json"
        sidecar.write_text(json.dumps(meta))
        proc = run_cli(
            "--out",
            tmp_path,
            "depth",
            depth_bundle / "depth_dataset.csv",
            sidecar,
            check=False,
        )
        assert proc.returncode == 3

    def test_one_point_scan_is_numerical_error(self, depth_bundle, tmp_path):
        # the deepest point of the dip alone cannot fix depth and linewidth
        header, *rows = (depth_bundle / "depth_dataset.csv").read_text().splitlines()
        deepest = min(rows, key=lambda row: float(row.split(",")[1]))
        scan = tmp_path / "one.csv"
        scan.write_text(f"{header}\n{deepest}\n")
        proc = run_cli(
            "--out", tmp_path, "depth", scan, depth_bundle / "depth_dataset.json",
            check=False,
        )
        assert proc.returncode == 4
        # one error line and nothing else: no library warning leaks to stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ") and "covariance is not finite" in line

    def test_missing_file_is_usage_error(self, tmp_path):
        proc = run_cli(
            "--out", tmp_path, "depth", "/nonexistent.csv", "/nonexistent.json",
            check=False,
        )
        assert proc.returncode == 2


class TestNoiseCommand:
    def test_spectrum_and_floor(self, noise_bundle, tmp_path):
        run_cli("--out", tmp_path, "noise", noise_bundle)
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "omega_rad_s,s_t2_per_hz"
        assert len(lines) > 8
        comparison = json.loads((tmp_path / "erl_comparison.json").read_text())
        # synthetic floor is pinned 21.6 dB below the line; the reconstructed
        # floor should land within a few dB
        assert comparison["db_below_erl_line"] == pytest.approx(21.6, abs=3.0)
        lor = json.loads((tmp_path / "lorentzian.json").read_text())
        assert lor["s_max_t2_per_hz"] > 0

    def test_empty_dir_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        proc = run_cli("--out", tmp_path, "noise", empty, check=False)
        assert proc.returncode == 3


class TestErlCommand:
    def test_bundled_table(self, tmp_path):
        run_cli("--out", tmp_path, "erl")
        report = json.loads((tmp_path / "erl_report.json").read_text())
        assert report["all_consistent"] is True
        assert len(report["rows"]) == 24
        scatter = (tmp_path / "erl_scatter.csv").read_text().splitlines()
        assert scatter[0] == "l_eff_m,e_r_hbar,kind"
        assert len(scatter) == 25

    def test_zero_stored_e_r_is_data_error(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text(
            "kind,l_eff_m,eta_t_per_sqrt_hz,ref,e_r_hbar\nNV,4.0e-09,5.3e-08,1,0\n"
        )
        proc = run_cli("--out", tmp_path, "erl", table, check=False)
        assert proc.returncode == 3
        assert "e_r must be finite and > 0" in proc.stderr

    def test_rerun_reproduces(self, tmp_path):
        run_cli("--out", tmp_path, "erl")
        proc = run_cli("rerun", tmp_path / "manifest.json")
        assert "byte-identically" in proc.stdout

    def test_repeated_rerun_keeps_command(self, tmp_path):
        run_cli("--out", tmp_path, "erl")
        manifest_path = tmp_path / "manifest.json"
        command = json.loads(manifest_path.read_text())["command"]
        assert command == ["--out", str(tmp_path), "erl"]
        for _ in range(2):
            proc = run_cli("rerun", manifest_path)
            assert "byte-identically" in proc.stdout
            assert json.loads(manifest_path.read_text())["command"] == command

    def test_rerun_detects_tampering(self, tmp_path):
        run_cli("--out", tmp_path, "erl")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        victim = next(iter(manifest["outputs"]))
        # point a recorded hash at different content than a re-run makes
        manifest["outputs"][victim] = "0" * 64
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("rerun", tmp_path / "manifest.json", check=False)
        assert proc.returncode == 4


class TestSenseCommand:
    def test_small_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"n_shots": 20000, "shots_per_point": 500, "volts": [0.0, 0.4, 15]}
            )
        )
        run_cli("--seed", 4, "--config", cfg, "--out", tmp_path, "sense")
        budget = json.loads((tmp_path / "budget.json").read_text())
        assert budget["fitted_b_v_t_per_v"] == pytest.approx(112e-9, rel=0.10)
        assert budget["eta_asymptote_t_per_sqrt_hz"] == pytest.approx(
            0.59e-9, rel=0.3
        )
        eta = (tmp_path / "eta_vs_time.csv").read_text().splitlines()
        assert eta[0] == "averaging_time_s,eta_t_per_sqrt_hz"
        assert (tmp_path / "fringe.csv").exists()
        assert (tmp_path / "shots.csv").exists()


class TestGrapeCommand:
    def test_small_problem(self, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(
            json.dumps(
                {
                    "angle_deg": 90,
                    "axis": "y",
                    "n_pieces": 14,
                    "piece_duration_s": 25e-9,
                    "max_rabi_hz": 20e6,
                    "target_infidelity": 1e-3,
                }
            )
        )
        run_cli("--seed", 1, "--out", tmp_path, "grape", problem)
        summary = json.loads((tmp_path / "grape_summary.json").read_text())
        assert summary["fidelity"] >= 0.999
        assert summary["verified_fidelity"] == pytest.approx(
            summary["fidelity"], abs=1e-12
        )
        wf = (tmp_path / "waveform.csv").read_text().splitlines()
        # comment line with the piece duration, header, then 14 pieces
        assert len(wf) == 16
        trace = (tmp_path / "fidelity_trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,fidelity"


def _with_nan_on_line_3(path: Path):
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[1] = "nan"
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", ["depth", "noise", "erl"])
def test_nan_field_is_data_error(command, depth_bundle, noise_bundle, tmp_path):
    """A NaN in the second column of line 3 of an input table exits 3 and
    names the line."""
    if command == "depth":
        scan = tmp_path / "scan.csv"
        shutil.copy(depth_bundle / "depth_dataset.csv", scan)
        _with_nan_on_line_3(scan)
        args = [scan, depth_bundle / "depth_dataset.json"]
    elif command == "noise":
        curves = tmp_path / "curves"
        shutil.copytree(noise_bundle, curves)
        _with_nan_on_line_3(curves / "coherence_n16.csv")
        args = [curves]
    else:
        table = tmp_path / "table.csv"
        table.write_text(
            "kind,l_eff_m,eta_t_per_sqrt_hz,ref,e_r_hbar\n"
            "NV,4.0e-09,5.3e-08,1,0.68\n"
            "NV,nan,5.3e-08,1,0.68\n"
        )
        args = [table]
    proc = run_cli("--out", tmp_path / "out", command, *args, check=False)
    assert proc.returncode == 3
    assert "line 3: " in proc.stderr and "is not a finite number: 'nan'" in proc.stderr
