import contextlib
import hashlib
import importlib.util
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvsense.manifest import RunManifest

# a numpy warning in a CLI process is an error: each command refuses such input by name
CLI = [sys.executable, "-W", "error::RuntimeWarning", "-m", "nvsense"]
# the modules the CLI binds lazily, each executed by the first command that uses it
LAZY_LAYERS = ("grape", "noisespec", "protocol", "sensitivity", "synth")
ROOT = Path(__file__).resolve().parent.parent
SMALL_PROBLEM = {
    "angle_deg": 90,
    "axis": "y",
    "n_pieces": 14,
    "piece_duration_s": 25e-9,
    "max_rabi_hz": 20e6,
    "target_infidelity": 1e-3,
}
SMALL_SENSE = {"n_shots": 20000, "shots_per_point": 500, "volts": [0.0, 0.4, 15]}
# SHA-256 of `--seed 6 sense` on 30,000 shots (default fringe) with numpy 2.4's
# Philox streams; a change to any random stream or writer shows here
SENSE_DIGESTS = {
    "shots.csv": "3f10211a29272515062a52637fb204ce7f251ecafb4d68b4c8f5d613a1cf7554",
    "fringe.csv": "83bfa4f90f38eec284d68f04cb91d4f4b89930c4b8bbfe6c3cedb6b0105b9678",
    "eta_vs_time.csv": "906238ee20031fee0811968a231be64244386a67890cb5b6e9c7fbb59e01c38e",
    "budget.json": "deac6f4d3533a06fc18ae9735284bab03cd60baa418dfa947d4e20cdacd3cee6",
}
# SHA-256 of `--seed 1 grape` on SMALL_PROBLEM and of `depth` on depth_bundle;
# the CLI's BLAS threading must change no output bit
GRAPE_DIGESTS = {
    "waveform.csv": "480a87b05d1b49d2fb547f787205c58668d5db5d757efe35ca80fd0be10a8446",
    "fidelity_trace.csv": "417078d345aea3d07251d68da8f783a7429dfc3103f9cd6895483ca6bc588711",
    "grape_summary.json": "50b107572d8bbd6f5d8980bc6be39daf51715f7ddd9ad4e87c2fb728dafe918a",
}
DEPTH_DIGESTS = {
    "depth_report.json": "4df61282feca67b7f5addd8700334229f16571b34e4086df50f733c5af1330b0",
    "depth_fit_curve.csv": "54888915973ca1f1cbcef6e02ed41a50286b5beb342019164f83f1cb12d394f3",
}
# SHA-256 of `--seed 0 gen noise` (noise_bundle) and of `noise` on it (the
# closed-form surface-noise fit and the top-down harmonic sweep); a rewrite of
# the comb or of the inversion must change no output bit
NOISE_DIGESTS = {
    "gen noise": {
        "coherence_n16.csv": "98962b56a8556e89b2a99e66df2fce8e5b5385d1d128942e7c57c9aa1bfeaaba",
        "coherence_n64.csv": "f9872722eaf009598b9d24d8c13d454ea8a421eae303919e00303824bc0108db",
        "coherence_n128.csv": "7f357131ed4e41e2553005f15501f47fa38ac88a0219a12b1e61ceb5063bcfce",
        "coherence_n512.csv": "bef151c1a7486c39ebf46837cca7893adf321382c8799842808cb2fcb17b767b",
    },
    "noise": {
        "spectrum.csv": "8048e1851f7af354b7173617ff52af3cb3edda788b0004d8b9be56a79471d387",
        "spectrum.axes.json": "5d5efc0d7167b7c706b4eef09482786fbcf05afb9af2d568659e752075c1c21e",
        "lorentzian.json": "a298c72a039cef725cc55a24b4419bbf979bfa2485330c5ee206818d437a4938",
        "erl_comparison.json": "dcd9f3a8ac929e2482c8c9f94b0e14c822eaa2016bffe64fdecb6245445c8261",
    },
}


# RunManifest.to_json of TestManifest's fields; the bytes of a manifest are
# the record that rerun checks, so any change to its serializer shows here
MANIFEST_TEXT = (
    '{\n  "command": [\n    "--seed",\n    "3",\n    "--out",\n    "out",\n    "sense"\n  ],\n'
    '  "config_path": "cfg.json",\n'
    '  "inputs": {\n    "cfg.json": "' + "a" * 64 + '"\n  },\n'
    '  "outputs": {\n    "out/budget.json": "' + "c" * 64 + '",\n'
    '    "out/shots.csv": "' + "b" * 64 + '"\n  },\n'
    '  "seed": 3,\n  "version": "0.1.0"\n}'
)


def digests(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def run_cli(*args, check=True, close_stdout=False):
    argv = CLI + [str(a) for a in args]
    if close_stdout:  # the child starts with no fd 1, as after a shell's `>&-`
        argv = ["sh", "-c", 'exec "$@" >&-', "sh", *argv]
    proc = subprocess.run(argv, capture_output=True, text=True)
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
    @pytest.mark.parametrize("close_stdout", [False, True], ids=["piped", "closed"])
    def test_help_exits_zero(self, close_stdout):
        proc = run_cli("--help", close_stdout=close_stdout)
        if close_stdout:
            assert (proc.stdout, proc.stderr) == ("", "")
        else:
            assert "depth" in proc.stdout and "erl" in proc.stdout

    def test_version(self):
        proc = run_cli("--version")
        assert "0.1.0" in proc.stdout

    @pytest.mark.parametrize("arg", ["--help", "--version"])
    def test_stdout_pipe_closed_by_its_reader_exits_one(self, arg):
        """click catches the EPIPE of its flush and exits 1, writing nothing
        to stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                CLI + [arg], stdout=write_end, stderr=subprocess.PIPE, text=True
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_unknown_command_usage_error(self):
        proc = run_cli("frobnicate", check=False)
        assert proc.returncode == 2

    def test_zero_threads_usage_error(self, tmp_path):
        proc = run_cli("--threads", 0, "--out", tmp_path, "erl", check=False)
        assert proc.returncode == 2
        assert "--threads" in proc.stderr

    @pytest.mark.parametrize(
        "seed, args",
        [(2**64, ["sense"]), (-1, ["gen", "depth"])],
        ids=["above-uint64", "negative"],
    )
    def test_seed_out_of_range_usage_error(self, seed, args, tmp_path):
        proc = run_cli("--seed", seed, "--out", tmp_path, *args, check=False)
        assert proc.returncode == 2
        assert "--seed" in proc.stderr

    def test_traced_layers_resolve(self):
        """Every name the benchmark tracer wraps exists: each (module,
        attribute) of its TARGETS, the ``add_output`` it reads from the
        manifest class, and the callback of each CLI step, so a deletion in
        the package cannot silently break a traced run."""
        spec = importlib.util.spec_from_file_location(
            "clibench_tracer", ROOT / "clibench" / "tracer.py"
        )
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.TARGETS
        for module, attr in tracer.TARGETS:
            owner = importlib.import_module(f"nvsense.{module}")
            for name in attr.split("."):
                owner = getattr(owner, name)
            assert callable(owner), f"{module}.{attr}"
        from nvsense.cli import gen, main

        assert callable(vars(RunManifest)["add_output"])
        steps = {name: cmd for name, cmd in main.commands.items() if cmd is not gen}
        steps.update({f"gen_{name}": cmd for name, cmd in gen.commands.items()})
        assert set(tracer.CLI_STEPS) <= set(steps)
        for name, cmd in steps.items():
            assert callable(cmd.callback), name

    @pytest.mark.parametrize(
        "module",
        [
            "scipy.stats",
            "scipy.integrate",
            "scipy",
            "concurrent.futures",
            "fractions",
            "importlib.metadata",
        ],
    )
    def test_import_leaves_module_out(self, module):
        code = f"import sys, nvsense.cli; print({module!r} in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_package_import_leaves_numpy_out(self):
        code = (
            "import sys, nvsense\n"
            "print('numpy' in sys.modules)\n"
            "print(all(getattr(nvsense, name) is not None for name in nvsense.__all__))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["False", "True"]

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="no /proc/self/status"
    )
    def test_package_refuses_a_name_it_does_not_export(self):
        import nvsense

        with pytest.raises(AttributeError, match="^module 'nvsense' has no attribute 'fit'$"):
            nvsense.fit

    def test_cli_runs_blas_on_one_thread_unless_set(self):
        """Once the CLI and scipy.optimize are loaded, OPENBLAS_NUM_THREADS is 1
        and the process has one OS thread; a value already set is kept."""
        code = (
            "import os, nvsense.cli, scipy.optimize\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('Threads:')))\n"
        )
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

        def run(**env):
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={**base, **env},
            )
            return proc.stdout.split()

        assert run() == ["1", "1"]
        assert run(OPENBLAS_NUM_THREADS="2")[0] == "2"

    @pytest.mark.parametrize(
        "call, lines",
        [
            (
                "sys.argv = ['nvsense', *ARGV]\nfrom nvsense.cli import main\nmain()\n",
                ["24 rows checked, 0 inconsistent"],
            ),
            (
                "from nvsense.cli import main\nmain(ARGV, standalone_mode=False)\n",
                ["24 rows checked, 0 inconsistent", "handler False"],
            ),
            ("import nvsense.cli\n", ["handler False"]),
            ("import nvsense.depth\n", ["handler False"]),
        ],
        ids=["standalone", "in-process", "import-cli", "import-depth"],
    )
    def test_only_a_standalone_call_skips_exit_handlers(self, call, lines, tmp_path):
        """A standalone CLI call ends its process once its line is printed,
        before exit handlers run; an in-process call and a plain import
        leave normal exit alone, with no heap frozen."""
        code = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('handler', gc.get_freeze_count() > 0))\n"
            f"ARGV = {['--out', str(tmp_path), 'erl']!r}\n"
        ) + call
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines() == lines

    def test_importing_the_main_module_runs_nothing(self):
        code = "import nvsense.__main__; print('alive')"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "alive\n")

    @pytest.mark.parametrize(
        "args",
        [["erl"], ["gen", "noise"], ["gen", "depth", "--suite"]],
        ids=["erl", "gen-noise", "gen-depth-suite"],
    )
    def test_command_without_fit_leaves_scipy_out(self, args, tmp_path):
        """Commands that fit nothing run without importing any scipy module."""
        argv = ["--out", str(tmp_path), *args]
        code = (
            "import sys\n"
            "from nvsense.cli import main\n"
            f"main({argv!r}, standalone_mode=False)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "args, executed",
        [
            ([], []),
            (["depth", "SCAN.csv", "SCAN.json"], []),
            (["grape", "PROBLEM"], ["grape"]),
        ],
        ids=["import", "depth", "grape"],
    )
    def test_layers_execute_with_their_command(
        self, args, executed, depth_bundle, tmp_path
    ):
        """The CLI binds grape, noisespec, protocol, sensitivity and synth
        lazily: after ``import nvsense.cli`` and after a ``depth`` run none
        of them has executed (each is still importlib's lazy module type),
        and a ``grape`` run executes grape alone."""
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(SMALL_PROBLEM))
        paths = {
            "SCAN.csv": depth_bundle / "depth_dataset.csv",
            "SCAN.json": depth_bundle / "depth_dataset.json",
            "PROBLEM": problem,
        }
        argv = ["--out", str(tmp_path / "out")] + [str(paths.get(a, a)) for a in args]
        code = (
            "import sys, types\n"
            "from nvsense.cli import main\n"
            f"if {bool(args)}:\n"
            f"    main({argv!r}, standalone_mode=False)\n"
            f"layers = {LAZY_LAYERS!r}\n"
            "print([m for m in layers if type(sys.modules['nvsense.' + m])"
            " is types.ModuleType])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == repr(executed)

    def test_lazy_layer_is_the_imported_module(self):
        """A layer imported before the CLI is bound as it is; one the CLI
        binds first is the module that ``sys.modules``, the package and a
        later import all give, and it executes on first use."""
        code = (
            "import sys, types\n"
            "import nvsense.protocol as protocol\n"
            "import nvsense, nvsense.cli as cli\n"
            "print(cli.protocol is protocol, type(protocol) is types.ModuleType)\n"
            "lazy = cli.synth\n"
            "print(lazy is sys.modules['nvsense.synth'] is nvsense.synth)\n"
            "print(type(lazy) is types.ModuleType)\n"
            "from nvsense.synth import nv3_floor\n"
            "print(type(lazy) is types.ModuleType, nv3_floor is lazy.nv3_floor)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines() == ["True True", "True", "False", "True True"]

    @pytest.mark.parametrize(
        "case", ["under-a-file", "name-too-long", "name-too-long-under-new-parents"]
    )
    def test_out_that_cannot_be_created_exits_3(self, case, tmp_path):
        """An --out whose directory cannot be made exits 3 with one line
        naming it, and writes nothing: the parents its mkdir made before
        the last name failed are removed too."""
        (tmp_path / "afile").write_text("")
        out = {
            "under-a-file": tmp_path / "afile" / "sub",
            "name-too-long": tmp_path / ("x" * 300),
            "name-too-long-under-new-parents": tmp_path / "deep" / "a" / ("x" * 300),
        }[case]
        proc = run_cli("--out", out, "erl", check=False)
        assert (proc.returncode, proc.stdout) == (3, "")
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: cannot create output directory {out}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]


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
        assert digests(noise_bundle, NOISE_DIGESTS["gen noise"]) == NOISE_DIGESTS["gen noise"]


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
        assert digests(tmp_path, DEPTH_DIGESTS) == DEPTH_DIGESTS

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

    def test_input_that_is_not_utf8_names_its_file(self, depth_bundle, tmp_path):
        bad, out = tmp_path / "bad.csv", tmp_path / "out"
        bad.write_bytes((depth_bundle / "depth_dataset.csv").read_bytes() + b"\xff")
        proc = run_cli("--out", out, "depth", bad, depth_bundle / "depth_dataset.json", check=False)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")
        assert list(out.iterdir()) == []

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

    def test_shallow_dip_is_numerical_error(self, tmp_path):
        # a 2,000 nm emitter shows no dip, so `gen depth` refuses it: the scan
        # is made here, as `gen depth --depth-nm 2000 --pulses 65536` made it.
        # One point at 0.93 passes the visible-dip check, and the amplitude
        # scan then starts the polish beyond the 500 nm bound
        from nvsense.synth import make_depth_dataset

        data = make_depth_dataset(2000 * 1e-9, 65536, noise=0.005, seed=0)
        (tmp_path / "depth_dataset.json").write_text(data.sidecar() + "\n")
        header, *rows = data.to_csv().splitlines()
        tau, _, sigma = rows[len(rows) // 2].split(",")
        rows[len(rows) // 2] = f"{tau},0.93,{sigma}"
        scan = tmp_path / "shallow.csv"
        scan.write_text("\n".join([header, *rows]) + "\n")
        proc = run_cli(
            "--out", tmp_path / "fit", "depth", scan, tmp_path / "depth_dataset.json",
            check=False,
        )
        assert proc.returncode == 4
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize("rho_per_nm3", [1e250, 1e-300])
    def test_start_depth_outside_the_box_is_numerical_error(self, rho_per_nm3, tmp_path):
        """A proton density that puts the 26.3 nm suite scan's dip at a depth
        outside the fit's 1-500 nm box exits 4 naming that depth and the box;
        the fit is not started from outside its bounds."""
        run_cli("--out", tmp_path, "gen", "depth", "--suite")
        meta = json.loads((tmp_path / "depth_26p3nm.json").read_text())
        sidecar = tmp_path / "rho.json"
        sidecar.write_text(json.dumps({**meta, "rho_per_nm3": rho_per_nm3}))
        out = tmp_path / "fit"
        proc = run_cli(
            "--out", out, "depth", tmp_path / "depth_26p3nm.csv", sidecar, check=False
        )
        assert proc.returncode == 4
        (line,) = proc.stderr.splitlines()
        prefix, box = "error: depth fit: the dip implies a depth of ", " nm, outside"
        assert line.startswith(prefix) and line.endswith(" the fit's 1-500 nm box")
        depth_nm = float(line[len(prefix):line.index(box)])
        assert depth_nm > 500 if rho_per_nm3 > 1 else depth_nm < 1
        assert not out.exists() or list(out.iterdir()) == []

    def test_missing_file_is_usage_error(self, tmp_path):
        proc = run_cli(
            "--out", tmp_path, "depth", "/nonexistent.csv", "/nonexistent.json",
            check=False,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("edit", ["changed", "missing"])
    def test_rerun_refuses_a_changed_input(self, edit, depth_bundle, tmp_path):
        """rerun checks the recorded inputs before it replays: an edited or
        deleted sidecar exits 3 naming it, and leaves every output as it was."""
        scan, sidecar = tmp_path / "scan.csv", tmp_path / "scan.json"
        shutil.copy(depth_bundle / "depth_dataset.csv", scan)
        shutil.copy(depth_bundle / "depth_dataset.json", sidecar)
        out = tmp_path / "out"
        run_cli("--out", out, "depth", scan, sidecar)
        recorded = {p.name: p.read_bytes() for p in out.iterdir()}
        if edit == "changed":
            meta = json.loads(sidecar.read_text())
            sidecar.write_text(json.dumps({**meta, "b0_tesla": meta["b0_tesla"] * 1.01}))
        else:
            sidecar.unlink()
        proc = run_cli("rerun", out / "manifest.json", check=False)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line == f"error: {sidecar}: recorded input is {edit}"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == recorded


class TestNoiseCommand:
    def test_spectrum_and_floor(self, noise_bundle, tmp_path):
        run_cli("--out", tmp_path, "noise", noise_bundle)
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "omega_rad_s,s_t2_per_hz"
        assert len(lines) > 8
        comparison = json.loads((tmp_path / "erl_comparison.json").read_text())
        # the synthetic floor is pinned 21.6 dB below the line, the surface
        # Lorentzian at 8e-19 T^2/Hz and 2 pi 120 kHz
        assert comparison["db_below_erl_line"] == pytest.approx(21.6, abs=0.1)
        lor = json.loads((tmp_path / "lorentzian.json").read_text())
        assert lor["floor_t2_per_hz"] == comparison["floor_t2_per_hz"]
        assert lor["s_max_t2_per_hz"] == pytest.approx(8e-19, rel=0.01)
        assert lor["width_rad_s"] == pytest.approx(2 * math.pi * 120e3, rel=0.01)
        assert not lor["degenerate_width"]
        assert digests(tmp_path, NOISE_DIGESTS["noise"]) == NOISE_DIGESTS["noise"]

    def test_every_band_within_two_percent_of_the_model(self, noise_bundle, tmp_path):
        from nvsense.synth import nv3_floor_spectrum

        run_cli("--out", tmp_path, "noise", noise_bundle)
        rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 1], nv3_floor_spectrum()(rows[:, 0]), rtol=0.02)

    def test_family_without_a_floor_exits_4(self, tmp_path):
        """A pure Lorentzian fits a floor no larger than its sigma, which has
        no decibels below the ERL line: noise exits 4 before any output."""
        from nvsense.synth import lorentzian_spectrum, make_coherence_family

        curves, out = tmp_path / "curves", tmp_path / "out"
        curves.mkdir()
        for curve in make_coherence_family(lorentzian_spectrum(8e-19, 2 * math.pi * 120e3)):
            (curves / f"n{curve.n_pulses}.csv").write_text(curve.to_csv())
            (curves / f"n{curve.n_pulses}.json").write_text(curve.sidecar())
        proc = run_cli("--out", out, "noise", curves, check=False)
        assert proc.returncode == 4
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: noise floor not resolved")
        assert list(out.iterdir()) == []

    def test_fits_without_numpys_least_squares(self, noise_bundle, tmp_path, monkeypatch):
        """noise fits through scipy alone: numpy's polyfit and lstsq, whose
        LAPACK would sit in the process beside scipy's, are never called."""
        from nvsense.cli import main

        def refuse(*args, **kwargs):
            raise AssertionError("numpy least squares called")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        argv = ["--out", str(tmp_path), "noise", str(noise_bundle)]
        try:
            main(argv, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
        assert code == 0
        assert (tmp_path / "erl_comparison.json").exists()

    def test_t1_too_short_is_data_error(self, noise_bundle, tmp_path):
        proc = run_cli(
            "--out", tmp_path, "noise", noise_bundle, "--t1", "1e-7", check=False
        )
        assert proc.returncode == 3
        # one error line naming t1; no numpy warning reaches stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: t1 = 1e-07 s is too short")

    def test_empty_dir_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        proc = run_cli("--out", tmp_path, "noise", empty, check=False)
        assert proc.returncode == 3

    @pytest.mark.parametrize("l_eff", ["nan", "inf", "-1e-9"])
    def test_unusable_l_eff_is_data_error(self, l_eff, noise_bundle, tmp_path):
        out = tmp_path / "out"
        proc = run_cli(
            "--out", out, "noise", noise_bundle, "--l-eff", l_eff, check=False
        )
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: l_eff must be > 0 and finite")
        assert list(out.iterdir()) == []  # refused before any output

    def test_missing_sidecar_is_data_error(self, noise_bundle, tmp_path):
        curves, out = tmp_path / "curves", tmp_path / "out"
        shutil.copytree(noise_bundle, curves)
        (curves / "coherence_n64.json").unlink()
        proc = run_cli("--out", out, "noise", curves, check=False)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == ["error: missing sidecar for coherence_n64.csv"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("others", [True, False], ids=["mixed", "ramsey-only"])
    def test_curve_without_passband_is_data_error(self, others, noise_bundle, tmp_path):
        """A RAMSEY curve (N = 0, passband at omega = 0) exits 3 naming its sidecar."""
        curves = tmp_path / "curves"
        if others:
            shutil.copytree(noise_bundle, curves)
        else:
            curves.mkdir()
        shutil.copy(noise_bundle / "coherence_n16.csv", curves / "ramsey.csv")
        (curves / "ramsey.json").write_text(json.dumps({"family": "RAMSEY", "N": 0}))
        proc = run_cli("--out", tmp_path / "out", "noise", curves, check=False)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert "ramsey.json" in line and "no passband" in line


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
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: {table}: NV: e_r ")

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

    @pytest.mark.parametrize(
        "command",
        [None, "erl", ["rerun", "SELF"], ["--seed", "1", "rerun", "SELF"]],
        ids=["null", "string", "rerun-itself", "rerun-itself-after-option"],
    )
    def test_rerun_rejects_command(self, command, tmp_path):
        """A recorded command that is not a list of strings, or is itself a
        rerun, exits 3 with one error line."""
        path = tmp_path / "manifest.json"
        if isinstance(command, list):
            command = [str(path) if arg == "SELF" else arg for arg in command]
        manifest = {"command": command, "seed": 0, "version": "0.1.0", "outputs": {}}
        path.write_text(json.dumps(manifest))
        proc = run_cli("rerun", path, check=False)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: cannot read manifest: ")

    @pytest.mark.parametrize("key", ["inputs", "outputs"])
    def test_rerun_rejects_files_that_are_not_a_map(self, key, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = {"command": ["erl"], "seed": 0, "version": "0.1.0", key: ["x"]}
        path.write_text(json.dumps(manifest))
        proc = run_cli("rerun", path, check=False)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: cannot read manifest: {key} must map")

    @pytest.mark.parametrize(
        "command", [["--version"], ["--help"], ["erl", "--help"]],
        ids=["version", "help", "command-help"],
    )
    def test_rerun_refuses_a_manifest_without_outputs(self, command, tmp_path):
        """Every recorded command writes an output, so a manifest that
        records none exits 3 and nothing is replayed."""
        path = tmp_path / "manifest.json"
        manifest = {"command": command, "seed": 0, "version": "0.1.0", "outputs": {}}
        path.write_text(json.dumps(manifest))
        proc = run_cli("rerun", path, check=False)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.splitlines() == [
            f"error: cannot read manifest: {path} records no outputs"
        ]

    def test_rerun_refuses_a_recorded_rerun(self, tmp_path):
        path = tmp_path / "manifest.json"
        outputs = {str(tmp_path / "out.json"): "0" * 64}
        manifest = {"command": ["rerun", str(path)], "seed": 0, "version": "0.1.0"}
        path.write_text(json.dumps({**manifest, "outputs": outputs}))
        proc = run_cli("rerun", path, check=False)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [f"error: cannot read manifest: {path} records a rerun"]

    def test_rerun_detects_tampering(self, tmp_path):
        run_cli("--out", tmp_path, "erl")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        victim = next(iter(manifest["outputs"]))
        # point a recorded hash at different content than a re-run makes
        manifest["outputs"][victim] = "0" * 64
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("rerun", tmp_path / "manifest.json", check=False)
        assert proc.returncode == 4

    def test_rerun_leaves_tampered_manifest_as_recorded(self, tmp_path):
        """A replayed run writes no manifest, so a failed rerun fails again."""
        run_cli("--out", tmp_path, "erl")
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["outputs"][next(iter(manifest["outputs"]))] = "0" * 64
        path.write_text(json.dumps(manifest))
        tampered = path.read_bytes()
        for _ in range(2):
            assert run_cli("rerun", path, check=False).returncode == 4
            assert path.read_bytes() == tampered


class TestManifest:
    def test_text_is_pinned_and_round_trips(self):
        manifest = RunManifest(
            command=["--seed", "3", "--out", "out", "sense"],
            seed=3,
            version="0.1.0",
            config_path="cfg.json",
            inputs={"cfg.json": "a" * 64},
            outputs={"out/shots.csv": "b" * 64, "out/budget.json": "c" * 64},
        )
        assert manifest.to_json() == MANIFEST_TEXT
        assert RunManifest.from_json(MANIFEST_TEXT) == manifest

    @pytest.mark.parametrize("command", ["depth", "sense"])
    def test_each_input_is_read_once(self, command, depth_bundle, tmp_path):
        """An in-process run opens each input once, and the manifest records
        the SHA-256 of the bytes it read."""
        if command == "depth":
            inputs = [depth_bundle / "depth_dataset.csv", depth_bundle / "depth_dataset.json"]
            args = ["depth", *inputs]
        else:
            inputs = [tmp_path / "cfg.json"]
            inputs[0].write_text(json.dumps(SMALL_SENSE))
            args = ["--config", inputs[0], "sense"]
        argv = [str(a) for a in ["--out", tmp_path / "out", *args]]
        # the audit hook sees every open of a file, by any module
        code = (
            "import sys\n"
            f"opened = dict.fromkeys({[str(p) for p in inputs]!r}, 0)\n"
            "def hook(event, args):\n"
            "    if event == 'open' and args[0] in opened:\n"
            "        opened[args[0]] += 1\n"
            "sys.addaudithook(hook)\n"
            "from nvsense.cli import main\n"
            f"main({argv!r}, standalone_mode=False)\n"
            "print(opened)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == repr({str(p): 1 for p in inputs})
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["inputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs
        }

    def test_crlf_scan_fits_as_its_lf_original(self, depth_bundle, tmp_path):
        """Inputs are parsed from their bytes, so a scan and sidecar with
        CRLF line endings give the outputs of the LF files."""
        for suffix in (".csv", ".json"):
            text = (depth_bundle / f"depth_dataset{suffix}").read_bytes()
            assert b"\r" not in text
            (tmp_path / f"crlf{suffix}").write_bytes(text.replace(b"\n", b"\r\n"))
        out = tmp_path / "out"
        run_cli("--out", out, "depth", tmp_path / "crlf.csv", tmp_path / "crlf.json")
        assert digests(out, DEPTH_DIGESTS) == DEPTH_DIGESTS

    def test_replay_hashes_each_output_once(self, tmp_path, monkeypatch):
        """A rerun's replay records no digest, so only the check of the
        recorded outputs hashes them: each once."""
        from nvsense import manifest
        from nvsense.cli import main

        main(["--out", str(tmp_path), "erl"], standalone_mode=False)
        hashed, sha256_file = [], manifest.sha256_file

        def counted(path):
            hashed.append(str(path))
            return sha256_file(path)

        monkeypatch.setattr(manifest, "sha256_file", counted)
        main(["rerun", str(tmp_path / "manifest.json")], standalone_mode=False)
        recorded = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
        assert sorted(hashed) == sorted(recorded)


# a `sense` config edit whose value is refused, and the key its error names;
# a field whose phase gamma_e B t_c is not finite is refused too
BAD_SENSE_CONFIGS = {
    "signal-zero": ("signal_t", {"signal_t": 0}),
    "signal-text": ("signal_t", {"signal_t": "1e-9"}),
    "signal-phase-overflow": ("signal_t", {"signal_t": 1e308}),
    "n-shots-50": ("n_shots", {"n_shots": 50}),
    "volts-two-values": ("volts", {"volts": [0, 0.4]}),
    "volts-text": ("volts", {"volts": "abc"}),
    "volts-zero-span": ("volts", {"volts": [0.2, 0.2, 25]}),
    "volts-seven-points": ("volts", {"volts": [0.0, 0.4, 7]}),
    "volts-count-fractional": ("volts count", {"volts": [0.0, 0.4, 12.5]}),
    "volts-span-overflow": ("volts", {"volts": [-1.7e308, 1.7e308, 8]}),
    "volts-phase-overflow": ("volts", {"volts": [0, 1e308, 8]}),
    "shots-per-point-zero": ("shots_per_point", {"shots_per_point": 0}),
}


# a JSON value of any type, kept small; floats include the infinities that
# a JSON number past the float range (such as 1e400) parses to
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)
# numbers, with magnitudes at the edges of the float range drawn often
NUMBERS = (
    st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from([5e-324, 1e-100, 1e100, 1e300, sys.float_info.max]).flatmap(
        lambda x: st.sampled_from([x, -x])
    )
)
# the exceptions that ``_recorded`` and ``rerun`` turn into one error line
ONE_LINE_ERRORS = (ArithmeticError, MemoryError, ValueError, KeyError, TypeError, OSError)


@contextlib.contextmanager
def address_space_capped(headroom_bytes):
    """Cap this process's address space ``headroom_bytes`` above its current
    size, so a generated array of 10^9 points fails as MemoryError at once
    instead of taking the host's memory."""
    status = Path("/proc/self/status").read_text()
    size_kb = int(next(line.split()[1] for line in status.splitlines() if line.startswith("VmSize:")))
    old = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (size_kb * 1024 + headroom_bytes, old[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, old)


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="no /proc/self/status"
)
@given(
    st.fixed_dictionaries(
        {},
        optional={
            # values a run takes are drawn often, so that the later keys'
            # checks are reached past the earlier ones
            "signal_t": st.floats(1e-12, 1e-6) | NUMBERS | JSON_VALUES,
            "n_shots": st.integers(100, 10**6) | NUMBERS | JSON_VALUES,
            "volts": st.tuples(NUMBERS, NUMBERS, st.integers(8, 64) | NUMBERS).map(list)
            | JSON_VALUES,
            "shots_per_point": st.integers(1, 10**4) | NUMBERS | JSON_VALUES,
            "unknown": JSON_VALUES,
        },
    )
)
@example({"volts": [0, sys.float_info.max, 8]})
@example({"volts": [0, 1e-100, 8], "n_shots": 10**400})
@settings(max_examples=400, deadline=None)
def test_sense_settings_return_or_raise_one_line_errors(cfg):
    """Any JSON object over the four ``sense`` keys and an unknown one gives
    the settings, or an exception the CLI reports as one error line; a
    numpy warning, which pytest makes an error here, would be a second line."""
    from nvsense.cli import _sense_settings
    from nvsense.protocol import nv3_config

    config = nv3_config()
    _sense_settings({}, config)  # loads what the checks use before the cap
    try:
        with address_space_capped(256 * 2**20):
            settings_ = _sense_settings(cfg, config)
    except ONE_LINE_ERRORS:
        return
    signal, n_shots, grid, shots_per_point = settings_
    assert signal > 0 and n_shots >= 100 and shots_per_point >= 1
    assert len(grid) >= 8 and np.all(np.isfinite(grid))
    assert set(cfg) <= {"signal_t", "n_shots", "volts", "shots_per_point"}


# each JSON input: a valid object, and the argv of a command that reads it
# from BAD (a noise curves directory holding BAD as a curve's sidecar)
JSON_INPUTS = {
    "sense config": (SMALL_SENSE, ["--config", "BAD", "sense"]),
    "grape problem": (SMALL_PROBLEM, ["grape", "BAD"]),
    "depth sidecar": (
        {"sequence": "XY16", "N": 4096, "b0_tesla": 0.2, "sample": "glycerine", "rho_per_nm3": 66.0},
        ["depth", "DEPTH_CSV", "BAD"],
    ),
    "coherence sidecar": ({"family": "XY16", "N": 16}, ["noise", "CURVES"]),
}


def schema_of(name: str) -> dict:
    from nvsense.cli import _GRAPE, _SENSE
    from nvsense.depth import DepthDataset
    from nvsense.sequences import CoherenceCurve

    return {
        "sense config": _SENSE,
        "grape problem": _GRAPE,
        "depth sidecar": DepthDataset.SIDECAR,
        "coherence sidecar": CoherenceCurve.SIDECAR,
    }[name]


def json_objects(name: str):
    """Any JSON value; objects over the input's keys and an unknown one; and
    the input's valid object (its defaults filled in) with keys dropped, or
    added or set, each value a valid one, a number, a triple of numbers, a
    name that some key takes, or any JSON value."""
    from nvsense.errors import REQUIRED

    schema, (valid, _) = schema_of(name), JSON_INPUTS[name]
    valid = {**{k: row[1] for k, row in schema.items() if row[1] is not REQUIRED}, **valid}
    valid["unknown"] = 0
    names = st.sampled_from(["x", "y", "z", "XY16", "XY8", "CPMG", "RAMSEY", "glycerine"])
    triples = st.tuples(NUMBERS, NUMBERS, st.integers(8, 64) | NUMBERS).map(list)
    values = {
        key: st.just(valid[key]) | NUMBERS | triples | names | JSON_VALUES
        for key in [*schema, "unknown"]
    }
    edits = st.sets(st.sampled_from(sorted(values)), max_size=2).flatmap(
        lambda keys: st.fixed_dictionaries({key: values[key] for key in keys})
    )
    dropped = st.sets(st.sampled_from(sorted(schema)), max_size=1)
    return (
        JSON_VALUES
        | st.fixed_dictionaries({}, optional={key: values[key] for key in schema})
        | st.builds(
            lambda gone, edit: {**{k: valid[k] for k in schema if k not in gone}, **edit},
            dropped,
            edits,
        )
    )


def read_capped(obj, schema):
    """``read_object`` under an address-space cap, so that a sweep of 10^9
    points fails at once as MemoryError."""
    from nvsense.errors import read_object

    with address_space_capped(256 * 2**20):
        return read_object(obj, schema)


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="no /proc/self/status"
)
@pytest.mark.parametrize("name", JSON_INPUTS)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_reader_returns_every_row_or_refuses_with_one_line(name, data):
    """Over every JSON input's schema, ``errors.read_object`` returns one
    value per row, each read by its reader and passing its rules, for an
    object whose keys are the schema's; or it raises ``KeyError`` for a
    required key that is absent, or ``InputError`` with one line that names
    the key, the unknown key or the value that is not an object. A sweep too
    large to allocate raises ``MemoryError`` (the CLI exits 4)."""
    from nvsense.errors import REQUIRED, InputError, as_float, as_int

    schema = schema_of(name)
    obj = data.draw(json_objects(name))
    try:
        values = read_capped(obj, schema)
    except KeyError as exc:
        (key,) = exc.args
        assert schema[key][1] is REQUIRED and key not in obj
        return
    except MemoryError:
        assert name == "sense config" and "volts" in obj
        return
    except InputError as exc:
        message = str(exc)
        assert "\n" not in message
        if not isinstance(obj, dict):
            assert message == f"expected a JSON object, got {type(obj).__name__}"
        elif set(obj) - set(schema):
            assert message == f"unknown key {next(k for k in obj if k not in schema)!r}"
        else:
            assert message.startswith(tuple(schema))
        return
    assert isinstance(obj, dict) and set(obj) <= set(schema)
    assert len(values) == len(schema)
    for (key, (reader, default, *rules)), value in zip(schema.items(), values):
        assert default is not REQUIRED or key in obj
        if reader is None:
            assert value is obj.get(key, default)
        elif reader is as_int:
            assert type(value) is int
        elif reader is as_float:
            assert type(value) is float and math.isfinite(value)
        assert all(test(value) for test, _ in rules)


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="no /proc/self/status"
)
@pytest.mark.parametrize("name", JSON_INPUTS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_command_refuses_what_the_reader_refuses(name, data, depth_bundle, noise_bundle):
    """For each command with a JSON input, an object ``read_object`` refuses
    exits 3 with exactly one line, ``error: <the input's path>: ...``, no
    traceback, and nothing under --out. The command runs in process."""
    from click.testing import CliRunner

    from nvsense.cli import main
    from nvsense.errors import InputError

    obj = data.draw(json_objects(name))
    try:
        read_capped(obj, schema_of(name))
        return  # taken: the command would run
    except MemoryError:
        return
    except (InputError, KeyError):
        pass
    with tempfile.TemporaryDirectory() as tmp:
        curves = Path(tmp, "curves")
        curves.mkdir()
        shutil.copy(noise_bundle / "coherence_n16.csv", curves)
        bad = curves / "coherence_n16.json" if name == "coherence sidecar" else Path(tmp, "bad.json")
        bad.write_text(json.dumps(obj))
        places = {"BAD": bad, "DEPTH_CSV": depth_bundle / "depth_dataset.csv", "CURVES": curves}
        args = [str(places.get(arg, arg)) for arg in JSON_INPUTS[name][1]]
        out = Path(tmp, "out")
        result = CliRunner().invoke(main, ["--out", str(out), *args])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 3
        (line,) = result.stderr.splitlines()
        assert line.startswith(f"error: {bad}: ")
        assert result.stdout == ""
        assert list(out.iterdir()) == []


def test_readme_table_holds_every_schema_row():
    """README's table of the JSON inputs lists each schema key with its
    default, so the table cannot drift from the readers."""
    from nvsense.errors import REQUIRED

    rows = [line.strip() for line in (ROOT / "README.md").read_text().splitlines()]
    for name in JSON_INPUTS:
        for key, (_, default, *_) in schema_of(name).items():
            shown = "required" if default is REQUIRED else f"`{json.dumps(default)}`"
            assert any(row.startswith(f"| {name} | `{key}` | {shown} |") for row in rows), key


MANIFEST_VALUES = (
    JSON_VALUES
    | st.text(max_size=8)
    | st.lists(st.text(max_size=8), max_size=3)
    | st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=3)
)


@given(
    st.text()
    | JSON_VALUES.map(json.dumps)
    | st.fixed_dictionaries(
        {key: MANIFEST_VALUES for key in ("command", "seed", "version")},
        optional={
            key: MANIFEST_VALUES for key in ("config_path", "inputs", "outputs", "other")
        },
    ).map(json.dumps)
)
@settings(max_examples=400, deadline=None)
def test_manifest_reader_returns_or_raises_one_line_errors(text):
    """Any text, any JSON value, and any object over a manifest's keys gives
    a manifest, or an exception ``rerun`` reports as one error line."""
    try:
        manifest = RunManifest.from_json(text)
    except (ValueError, KeyError, TypeError, OSError):
        return
    assert isinstance(manifest.command, list)
    assert all(isinstance(arg, str) for arg in manifest.command)
    for files in (manifest.inputs, manifest.outputs):
        assert all(isinstance(digest, str) for digest in files.values())


class TestSenseCommand:
    def test_small_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_SENSE))
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

    @pytest.mark.parametrize("threads", [1, 3])
    def test_outputs_keep_their_digests(self, threads, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_shots": 30000}))
        out = tmp_path / "out"
        run_cli("--seed", 6, "--threads", threads, "--config", cfg, "--out", out, "sense")
        assert digests(out, SENSE_DIGESTS) == SENSE_DIGESTS

    def test_shot_phase_runs_before_scipy_loads(self, tmp_path):
        """The shots and eta(t) are done before the fringe fit first imports
        scipy, so the shot record never sits on top of scipy's memory; with
        the default --threads 1 the Monte Carlo runs on the calling thread
        and loads no thread pool. (scipy's own import loads
        concurrent.futures later, through numpy.testing.)"""
        argv = ["--out", str(tmp_path), "sense"]
        code = (
            "import sys\n"
            "import nvsense.cli as cli\n"
            "seen = []\n"
            "def watch(f):\n"
            "    def wrapped(*args, **kwargs):\n"
            "        result = f(*args, **kwargs)\n"
            "        seen.append([m in sys.modules for m in ('scipy', 'concurrent.futures')])\n"
            "        return result\n"
            "    return wrapped\n"
            "cli.protocol.run_experiment = watch(cli.protocol.run_experiment)\n"
            "cli.sensitivity.sensitivity_from_timeseries = "
            "watch(cli.sensitivity.sensitivity_from_timeseries)\n"
            f"cli.main({argv!r}, standalone_mode=False)\n"
            "print(seen)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == "[[False, False], [False, False]]"
        budget = json.loads((tmp_path / "budget.json").read_text())
        assert budget["fitted_b_v_t_per_v"] == pytest.approx(112e-9, rel=0.05)

    @pytest.mark.parametrize("threads, helpers", [(1, 0), (3, 2)])
    def test_calling_thread_is_the_first_worker(self, threads, helpers, tmp_path):
        """--threads N runs the Monte Carlo on the calling thread and N - 1
        helper threads, which are the only threads sense starts."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_SENSE))
        argv = ["--threads", str(threads), "--config", str(cfg)]
        argv += ["--out", str(tmp_path / "out"), "sense"]
        code = (
            "import threading\n"
            "from nvsense.cli import main\n"
            "started = []\n"
            "start = threading.Thread.start\n"
            "def counted(self):\n"
            "    started.append(self)\n"
            "    start(self)\n"
            "threading.Thread.start = counted\n"
            f"main({argv!r}, standalone_mode=False)\n"
            "print(len(started))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert int(proc.stdout.splitlines()[-1]) == helpers

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="no /proc/self/status"
    )
    def test_peak_rss_does_not_grow_with_the_shot_count(self, tmp_path):
        """Ten times the shots leave the peak RSS of one sense process tree
        within 2 MB: the forked fringe fit, which alone loads scipy, starts
        before the shot record exists, and the shot phase peaks below it.
        The tree's peak is the larger of the process's VmHWM and its reaped
        children's ru_maxrss, as a parent's wait4 reports it; the process
        itself never imports scipy."""

        def peak_mb(n_shots):
            cfg = tmp_path / f"cfg{n_shots}.json"
            cfg.write_text(json.dumps({"n_shots": n_shots}))
            argv = ["--threads", "2", "--config", str(cfg)]
            argv += ["--out", str(tmp_path / str(n_shots)), "sense"]
            code = (
                "import resource, sys\n"
                "from nvsense.cli import main\n"
                f"main({argv!r}, standalone_mode=False)\n"
                "hwm = next(int(line.split()[1]) for line in open('/proc/self/status')"
                " if line.startswith('VmHWM:'))\n"
                "child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
                "print(max(hwm, child), 'scipy' in sys.modules)\n"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True
            )
            peak, scipy_loaded = proc.stdout.splitlines()[-1].split()
            assert scipy_loaded == "False"
            return int(peak) / 1024

        small, large = peak_mb(120_000), peak_mb(1_200_000)
        assert large - small < 2.0, f"{small:.1f} MB -> {large:.1f} MB"

    @pytest.mark.parametrize("case", ["fits", "fit-fails", "shots-fail"])
    def test_no_process_outlives_sense(self, case, tmp_path):
        """The forked fringe fit is reaped on every path: after a sense that
        succeeds, one whose fit fails (exit 4 after the shot outputs) and one
        whose shot phase raises while the fit runs (exit 4), the process has
        no child left."""
        config = {"n_shots": 2000, "shots_per_point": 500}
        if case == "fit-fails":
            config["volts"] = [0.0, 0.05, 8]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), "--out", str(tmp_path / "out"), "sense"]
        code = (
            "import os\n"
            "import nvsense.cli as cli\n"
            "def fail(*args, **kwargs):\n"
            "    raise cli.NumericalError('shot phase failed')\n"
            f"if {case == 'shots-fail'}:\n"
            "    cli.protocol.run_experiment = fail\n"
            "try:\n"
            f"    cli.main({argv!r}, standalone_mode=False)\n"
            "    code = 0\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    print(code, 'child left')\n"
            "except ChildProcessError:\n"
            "    print(code, 'no child')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            timeout=300,
        )
        expected = "0 no child" if case == "fits" else "4 no child"
        assert proc.stdout.splitlines()[-1] == expected
        assert (tmp_path / "out" / "budget.json").exists() == (case == "fits")

    def test_fit_that_ends_without_a_result_exits_4(self, tmp_path):
        """A fringe fit whose process dies before it sends a result exits 4
        with one error line, no traceback and no manifest."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_shots": 2000, "shots_per_point": 500}))
        out = tmp_path / "out"
        argv = ["nvsense", "--config", str(cfg), "--out", str(out), "sense"]
        code = (
            "import os, sys\n"
            "import nvsense.cli as cli\n"
            "cli.sensitivity.fit_fringe = lambda *args: os._exit(9)\n"
            f"sys.argv = {argv!r}\n"
            "cli.main()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 4
        (line,) = proc.stderr.splitlines()
        assert line == "error: fringe fit ended without a result (child exit code 9)"
        assert not (out / "manifest.json").exists()
        assert not (out / "budget.json").exists()

    def test_sweep_under_a_period_exits_4_after_the_shot_outputs(self, tmp_path):
        """A fringe fit that fails runs after the shot table and eta(t) are
        written; the run exits 4 with one error line and writes no manifest."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_shots": 2000, "volts": [0.0, 0.05, 8]}))
        out = tmp_path / "out"
        proc = run_cli("--config", cfg, "--out", out, "sense", check=False)
        assert proc.returncode == 4
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: fitted fringe leaves no smaller residual")
        assert not (out / "manifest.json").exists()
        assert not (out / "budget.json").exists()
        assert (out / "shots.csv").exists() and (out / "eta_vs_time.csv").exists()

    def test_sweep_beyond_the_parabola_scaling_exits_3_with_one_line(self, tmp_path):
        """At 1e-100 V a voltage's fourth power underflows, so the parabola
        check's scaled Vandermonde matrix is not finite: sense refuses the
        sweep, naming the config and the sweep, with no LAPACK or numpy line
        before the error and before it simulates or writes anything."""
        cfg = tmp_path / "cfg.json"
        edit = {"n_shots": 2000, "shots_per_point": 100, "volts": [0, 1e-100, 8]}
        cfg.write_text(json.dumps(edit))
        out = tmp_path / "out"
        proc = run_cli("--config", cfg, "--out", out, "sense", check=False)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: {cfg}: voltage sweep from 0.0 to 1e-100 V ")
        assert not (out / "manifest.json").exists()
        assert list(out.iterdir()) == []

    def test_array_too_large_to_allocate_exits_4_with_one_line(self, tmp_path):
        """10^18 shots need more memory than any host has, so numpy refuses
        the shot record at once: exit 4 with one error line, after the
        fringe outputs and with no manifest."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_SENSE, "n_shots": 10**18}))
        out = tmp_path / "out"
        proc = run_cli("--config", cfg, "--out", out, "sense", check=False)
        assert proc.returncode == 4
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: Unable to allocate ")
        assert sorted(p.name for p in out.iterdir()) == ["fringe.axes.json", "fringe.csv"]

    def test_zero_shots_per_point_names_its_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_SENSE, "shots_per_point": 0}))
        proc = run_cli("--config", cfg, "--out", tmp_path, "sense", check=False)
        assert proc.returncode == 3
        assert "shots_per_point must be >= 1" in proc.stderr

    @pytest.mark.parametrize("case", BAD_SENSE_CONFIGS)
    def test_bad_config_value_names_its_key_and_writes_nothing(self, case, tmp_path):
        """Every config key is checked before sense simulates or writes."""
        key, edit = BAD_SENSE_CONFIGS[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_SENSE, **edit}))
        out = tmp_path / "out"
        proc = run_cli("--config", cfg, "--out", out, "sense", check=False)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: {cfg}: {key} ")
        assert list(out.iterdir()) == []


class TestGrapeCommand:
    def test_small_problem(self, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(SMALL_PROBLEM))
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
        assert digests(tmp_path, GRAPE_DIGESTS) == GRAPE_DIGESTS

    def test_angle_that_overflows_is_refused(self, tmp_path):
        # 1e308 degrees is finite, but not once it is turned into radians
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({**SMALL_PROBLEM, "angle_deg": 1e308}))
        out = tmp_path / "out"
        proc = run_cli("--out", out, "grape", problem, check=False)
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: {problem}: angle_deg ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("angle_deg", [4e15, 1e20])
    def test_huge_angle_keeps_the_fidelity_within_one(self, angle_deg, tmp_path):
        # a target that is not unitary lets |Tr(T^dag U)|^2 / 4 pass 1
        problem = tmp_path / "problem.json"
        edit = {"angle_deg": angle_deg, "target_infidelity": 1e-5}
        problem.write_text(json.dumps({**SMALL_PROBLEM, **edit}))
        run_cli("--seed", 1, "--out", tmp_path, "grape", problem)
        summary = json.loads((tmp_path / "grape_summary.json").read_text())
        assert summary["converged"]
        assert 1 - 1e-5 <= summary["fidelity"] <= 1.0
        assert summary["verified_fidelity"] == summary["fidelity"]


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


# the field each case replaces in a valid input; None writes a JSON list,
# TRUNCATED the first half of the valid text, a field set to MISSING is left
# out, and a non-finite float is written as Python's NaN, Infinity or -Infinity
TRUNCATED, MISSING = object(), object()
JSON_EDITS = {
    "config-list": None,
    "config-n-shots-fractional": {"n_shots": 20000.5},
    "config-signal-nan": {"signal_t": math.nan},
    "config-signal-inf": {"signal_t": math.inf},
    "config-signal-overflow": {"signal_t": 10**400},
    "problem-list": None,
    "problem-angle-null": {"angle_deg": None},
    "problem-n-pieces-fractional": {"n_pieces": 10.9},
    "problem-axis-z": {"axis": "z"},
    "problem-piece-duration-nan": {"piece_duration_s": math.nan},
    "problem-max-rabi-nan": {"max_rabi_hz": math.nan},
    "problem-max-rabi-string": {"max_rabi_hz": "fast"},
    "problem-angle-bool": {"angle_deg": True},
    "depth-sidecar-list": None,
    "depth-sidecar-n-null": {"N": None},
    "depth-sidecar-n-fractional": {"N": 4096.9},
    "depth-sidecar-b0-inf": {"b0_tesla": -math.inf},
    "depth-sidecar-b0-string": {"b0_tesla": "abc"},
    "depth-sidecar-b0-bool": {"b0_tesla": True},
    "depth-sidecar-truncated": TRUNCATED,
    "depth-sidecar-n-missing": {"N": MISSING},
    "coherence-sidecar-list": None,
    "coherence-sidecar-n-fractional": {"N": 16.5},
    "coherence-sidecar-n-nan": {"N": math.nan},
    "coherence-sidecar-truncated": TRUNCATED,
    "coherence-sidecar-n-missing": {"N": MISSING},
    "config-unknown-key": {"n_shot": 500},
    "problem-unknown-key": {"target_infidelty": 0.5},
    "problem-max-rabi-overflow": {"max_rabi_hz": 1e300},
    "problem-target-infidelity-above-one": {"target_infidelity": 2.0},
    "problem-target-infidelity-negative": {"target_infidelity": -1.0},
    "depth-sidecar-sequence-list": {"sequence": [1]},
    "depth-sidecar-sequence-unknown": {"sequence": "FOO"},
    "depth-sidecar-n-not-multiple": {"N": 100},
    "depth-sidecar-sample-number": {"sample": 5},
    "depth-sidecar-rho-zero": {"rho_per_nm3": 0},
    "depth-sidecar-rho-overflow": {"rho_per_nm3": 1e300},
    "depth-sidecar-b0-overflow": {"b0_tesla": 1e300},
    "depth-sidecar-b0-negative": {"b0_tesla": -0.035},
    "coherence-sidecar-family-unknown": {"family": "FOO"},
    "coherence-sidecar-n-not-multiple": {"N": 17},
    "coherence-sidecar-ramsey-pulses": {"family": "RAMSEY", "N": 16},
    "problem-n-pieces-zero": {"n_pieces": 0},
    "problem-piece-duration-negative": {"piece_duration_s": -1},
    "problem-max-rabi-zero": {"max_rabi_hz": 0},
    "config-volts-beyond-the-parabola-scaling": {"volts": [0, 1e-100, 8]},
    "config-volts-count-beyond-numpy": {"volts": [0, 0.4, 2**63 - 1]},
    "depth-sidecar-unknown-key": {"sequense": "XY16"},
    "coherence-sidecar-unknown-key": {"famliy": "XY16"},
}
# values a command refuses before any output: the message after the path
REFUSALS = {
    "config-list": "expected a JSON object, got list",
    "config-unknown-key": "unknown key 'n_shot'",
    "problem-unknown-key": "unknown key 'target_infidelty'",
    "problem-max-rabi-overflow": "max_rabi_hz 1e+300 over piece_duration_s 2.5e-08 "
    "gives a rotation that is not finite",
    "problem-target-infidelity-above-one": "target_infidelity must be in (0, 1), got 2.0",
    "problem-target-infidelity-negative": "target_infidelity must be in (0, 1), got -1.0",
    "depth-sidecar-sequence-list": "unknown sequence family [1]",
    "depth-sidecar-sequence-unknown": "unknown sequence family 'FOO'",
    "depth-sidecar-n-not-multiple": "XY16 needs a positive multiple of 16 pulses",
    "depth-sidecar-sample-number": "sample must be a string, got 5",
    "depth-sidecar-rho-zero": "rho_per_nm3 must be > 0, got 0",
    "depth-sidecar-rho-overflow": "rho_per_nm3 gives a proton density that is not finite, got 1e+300",
    "depth-sidecar-b0-overflow": "b0_tesla gives a proton Larmor frequency that is not finite, "
    "got 1e+300",
    "depth-sidecar-b0-negative": "b0_tesla must be > 0, got -0.035",
    "coherence-sidecar-family-unknown": "unknown sequence family 'FOO'",
    "coherence-sidecar-n-not-multiple": "XY16 needs a positive multiple of 16 pulses",
    "coherence-sidecar-ramsey-pulses": "RAMSEY carries no pi pulses",
    # the library's own rules, which name no file, named by the CLI
    "problem-axis-z": "rotation axis must be 'x' or 'y', got 'z'",
    "problem-n-pieces-zero": "n_pieces must be >= 1",
    "problem-piece-duration-negative": "piece_duration and max_rabi_hz must be > 0",
    "problem-max-rabi-zero": "piece_duration and max_rabi_hz must be > 0",
    "config-volts-beyond-the-parabola-scaling": "voltage sweep from 0.0 to 1e-100 V cannot be "
    "checked against a parabola: its voltages' powers leave the float range",
    # numpy cannot size a grid of 2**63 - 1 floats (an IndexError, not a MemoryError)
    "config-volts-count-beyond-numpy": "volts must be [lo, hi, count] with lo != hi and "
    "8 <= count < 2**59, got [0, 0.4, 9223372036854775807]",
    # sidecars hold only the keys their scan reads back
    "depth-sidecar-unknown-key": "unknown key 'sequense'",
    "coherence-sidecar-unknown-key": "unknown key 'famliy'",
}
NON_FINITE = ("-nan", "-inf")
# a TypeError, a non-finite number, a JSON text that does not parse and a
# missing key put the path of their file first
NAMES_FILE = ("-list", "angle-null", *NON_FINITE, "-truncated", "-missing")
# a real number given as text or as a bool names its file and its key
NAMES_KEY = ("-string", "-bool")


@pytest.mark.parametrize("case", JSON_EDITS)
def test_malformed_json_is_data_error(case, depth_bundle, noise_bundle, tmp_path):
    """A JSON input that is not an object, holds a value of the wrong type,
    a non-finite number, a count that is not a whole number or an unknown
    rotation axis exits 3 with one error line."""
    bad = tmp_path / "bad.json"
    if case.startswith("config"):
        valid, args = SMALL_SENSE, ["--config", bad, "sense"]
    elif case.startswith("problem"):
        valid, args = SMALL_PROBLEM, ["grape", bad]
    elif case.startswith("depth"):
        valid = json.loads((depth_bundle / "depth_dataset.json").read_text())
        args = ["depth", depth_bundle / "depth_dataset.csv", bad]
    else:
        curves = tmp_path / "curves"
        shutil.copytree(noise_bundle, curves)
        bad = curves / "coherence_n16.json"
        valid, args = json.loads(bad.read_text()), ["noise", curves]
    edit = JSON_EDITS[case]
    if edit is None:
        text = json.dumps([1, 2])
    elif edit is TRUNCATED:
        text = json.dumps(valid)
        text = text[: len(text) // 2]
    else:
        edited = {**valid, **edit}
        text = json.dumps({k: v for k, v in edited.items() if v is not MISSING})
    bad.write_text(text)
    proc = run_cli("--out", tmp_path / "out", *args, check=False)
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ")
    if case.endswith(NAMES_FILE):
        assert line.startswith(f"error: {bad}: ")
    if case.endswith(NON_FINITE):
        assert "is not a finite number" in line
    if case.endswith("missing"):
        assert line.endswith("missing key 'N'")
    if case.endswith(NAMES_KEY):
        (key,) = edit
        assert line.startswith(f"error: {bad}: {key} must be a number, got ")
    if case in REFUSALS:
        assert line == f"error: {bad}: {REFUSALS[case]}"
        assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command", ["depth", "noise", "erl"])
def test_csv_line_error_names_the_csv(command, depth_bundle, noise_bundle, tmp_path):
    """A table line of the wrong width exits 3 naming the table's file, also
    where its sidecar is read after it."""
    if command == "depth":
        table = tmp_path / "depth_dataset.csv"
        shutil.copy(depth_bundle / "depth_dataset.csv", table)
        args = ["depth", table, depth_bundle / "depth_dataset.json"]
    elif command == "noise":
        shutil.copytree(noise_bundle, tmp_path / "curves")
        table = tmp_path / "curves" / "coherence_n16.csv"
        args = ["noise", tmp_path / "curves"]
    else:
        table = tmp_path / "table.csv"
        table.write_text(
            "kind,l_eff_m,eta_t_per_sqrt_hz,ref,e_r_hbar\n"
            + "NV,4.0e-09,5.3e-08,1,0.5\n" * 3
        )
        args = ["erl", table]
    lines = table.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:2])
    table.write_text("\n".join(lines) + "\n")
    proc = run_cli("--out", tmp_path / "out", *args, check=False)
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    width = len(lines[0].split(","))
    assert line == f"error: {table}: line 4: 2 fields, the header has {width}"


@pytest.mark.parametrize(
    "command", ["depth", "noise", "grape", "sense", "erl", "gen depth", "gen noise"]
)
def test_manifest_lists_every_output(command, depth_bundle, noise_bundle, tmp_path):
    """The files a command writes to --out are exactly the manifest's outputs."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(SMALL_PROBLEM))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_SENSE))
    args = {
        "depth": [
            "depth",
            depth_bundle / "depth_dataset.csv",
            depth_bundle / "depth_dataset.json",
        ],
        "noise": ["noise", noise_bundle],
        "grape": ["grape", problem],
        "sense": ["--config", cfg, "sense"],
        "erl": ["erl"],
        "gen depth": ["gen", "depth"],
        "gen noise": ["gen", "noise"],
    }[command]
    out = tmp_path / "out"
    run_cli("--out", out, *args)
    manifest = json.loads((out / "manifest.json").read_text())
    written = {str(p) for p in out.iterdir()} - {str(out / "manifest.json")}
    assert written == set(manifest["outputs"])


@pytest.mark.parametrize("command", ["depth", "noise"])
def test_dataset_value_error_names_the_csv(command, depth_bundle, noise_bundle, tmp_path):
    """A table whose lines all parse but whose values its dataset refuses
    exits 3 naming the table's file, although its sidecar is read after it."""
    if command == "depth":
        table = tmp_path / "depth_dataset.csv"
        shutil.copy(depth_bundle / "depth_dataset.csv", table)
        args = ["depth", table, depth_bundle / "depth_dataset.json"]
        lines = table.read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        message = "tau grid must be strictly increasing"
    else:
        shutil.copytree(noise_bundle, tmp_path / "curves")
        table = tmp_path / "curves" / "coherence_n16.csv"
        args = ["noise", tmp_path / "curves"]
        lines = table.read_text().splitlines()
        time_2 = lines[2].split(",")[0]
        lines[3] = ",".join([time_2, *lines[3].split(",")[1:]])
        message = "times must be strictly increasing"
    table.write_text("\n".join(lines) + "\n")
    proc = run_cli("--out", tmp_path / "out", *args, check=False)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [f"error: {table}: {message}"]


@pytest.mark.parametrize("coherence", ["7.0", "-3.0"])
def test_depth_coherence_outside_range_names_the_csv(coherence, depth_bundle, tmp_path):
    """A depth scan is held to the coherence range of every scan: it exits 3
    naming the table before any fit."""
    table = tmp_path / "depth_dataset.csv"
    lines = (depth_bundle / "depth_dataset.csv").read_text().splitlines()
    tau, _, sigma = lines[5].split(",")
    lines[5] = f"{tau},{coherence},{sigma}"
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    proc = run_cli("--out", out, "depth", table, depth_bundle / "depth_dataset.json", check=False)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [f"error: {table}: coherence outside [-0.05, 1.05]"]
    assert list(out.iterdir()) == []


# a numeric option a command refuses before any output: its argv (NOISE for
# the gen noise bundle) and the message of the one error line
OPTION_REFUSALS = {
    "depth-nm-nan": (["gen", "depth", "--depth-nm", "nan"], "--depth-nm must be finite, got nan"),
    "depth-nm-inf": (["gen", "depth", "--depth-nm", "inf"], "--depth-nm must be finite, got inf"),
    "depth-nm-tiny": (
        ["gen", "depth", "--depth-nm", "1e-300"],
        "--depth-nm 1e-300 gives a dip below coherence 0.95 at --pulses 4096"
        " that is not finite and > 0",
    ),
    "depth-nm-huge": (
        ["gen", "depth", "--depth-nm", "1e300"],
        "--depth-nm 1e+300 gives a dip below coherence 0.95 at --pulses 4096"
        " that is not finite and > 0",
    ),
    # the proton linewidth D/d^2 overflows the model's overlap
    "depth-nm-overflow": (
        ["gen", "depth", "--depth-nm", "1e-80"],
        "--depth-nm 1e-80 gives a dip below coherence 0.95 at --pulses 4096"
        " that is not finite and > 0",
    ),
    # rho/d^3 is finite and > 0, but the scan's coherence never falls below 0.95
    "depth-nm-no-dip": (
        ["gen", "depth", "--depth-nm", "1e80", "--pulses", "65536"],
        "--depth-nm 1e+80 gives a dip below coherence 0.95 at --pulses 65536"
        " that is not finite and > 0",
    ),
    "depth-noise-negative": (
        ["gen", "depth", "--noise", "-1"], "--noise must be finite and >= 0, got -1.0",
    ),
    "noise-noise-negative": (
        ["gen", "noise", "--noise", "-1"], "--noise must be finite and >= 0, got -1.0",
    ),
    "db-below-inf": (["gen", "noise", "--db-below", "inf"], "--db-below must be finite, got inf"),
    "db-below-huge": (
        ["gen", "noise", "--db-below", "1e308"],
        "--db-below 1e+308 gives a noise floor that is not finite and > 0",
    ),
    "db-below-huge-negative": (
        ["gen", "noise", "--db-below", "-1e308"],
        "--db-below -1e+308 gives a noise floor that is not finite and > 0",
    ),
    "l-eff-tiny": (
        ["noise", "NOISE", "--l-eff", "1e-300"],
        "l_eff 1e-300 gives an ERL noise line outside the float range",
    ),
    "l-eff-huge": (
        ["noise", "NOISE", "--l-eff", "1e300"],
        "l_eff 1e+300 gives an ERL noise line outside the float range",
    ),
}


@pytest.mark.parametrize("case", OPTION_REFUSALS)
def test_numeric_option_is_refused_by_name(case, noise_bundle, tmp_path):
    """A numeric option that is not finite, or whose derived quantity is not
    finite and > 0, exits 3 with one error line and writes nothing."""
    args, message = OPTION_REFUSALS[case]
    args = [noise_bundle if arg == "NOISE" else arg for arg in args]
    out = tmp_path / "out"
    proc = run_cli("--out", out, *args, check=False)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert list(out.iterdir()) == []


def test_infinite_t1_deducts_nothing(noise_bundle, tmp_path):
    """``noise --t1 inf`` stays valid: exp(-t/T1) is 1, so the outputs are
    those of a run without --t1."""
    run_cli("--out", tmp_path, "noise", noise_bundle, "--t1", "inf")
    assert digests(tmp_path, NOISE_DIGESTS["noise"]) == NOISE_DIGESTS["noise"]


def test_gen_depth_refuses_pulses_its_sidecar_cannot_record(tmp_path):
    """``gen depth`` writes an XY16 sidecar, so it takes only the pulse counts
    ``depth`` reads back: a positive multiple of 16."""
    proc = run_cli("--out", tmp_path, "gen", "depth", "--pulses", 100, check=False)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["error: XY16 needs a positive multiple of 16 pulses"]
    assert list(tmp_path.iterdir()) == []


def _run_writing_to(out: Path):
    from nvsense.cli import _Run

    return _Run(argv=[], seed=0, out=out, config=None, threads=1, replay=False)


def test_refused_table_leaves_no_file(tmp_path):
    from nvsense.tables import table_blocks

    run = _run_writing_to(tmp_path)
    with pytest.raises(ValueError, match="equally long"):
        run.text("table.csv", table_blocks("a,b", [1.0], [1.0, 2.0]))
    with pytest.raises(ValueError, match="equally long"):
        run.plot("plot", a=("first", [1.0]), b=("second", [1.0, 2.0]))
    assert list(tmp_path.iterdir()) == []
    assert run.manifest.outputs == {}


def test_shot_table_is_written_in_bounded_memory(tmp_path):
    """A 400,000-shot table goes through ``_Run.text`` one block of rows at
    a time: the writer never holds half of the table's text."""
    import tracemalloc

    from nvsense.protocol import nv3_config, run_experiment

    shots = run_experiment(nv3_config(), 1e-9, 400_000, seed=9)
    run = _run_writing_to(tmp_path)
    tracemalloc.start()
    try:
        run.text("shots.csv", shots.csv_blocks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "shots.csv").stat().st_size
    assert (tmp_path / "shots.csv").read_text() == shots.to_csv()
    assert peak < size / 2, f"peak {peak} B for a {size} B table"
