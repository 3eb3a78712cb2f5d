"""Command-line interface.

Subcommands: depth, noise, grape, sense, erl, gen, rerun. Every command
honors --seed and writes a run manifest; plot outputs are plain CSV plus a
JSON axis description. Exit codes: 0 success, 2 usage, 3 bad input data
(``ValueError``, a missing key or an unreadable file), 4 numerical failure
(``errors.NumericalError`` or any other ``ArithmeticError``).
"""

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .depth import DepthDataset, fit_depth
from .depth import ProtonBathModel, proton_signal_coherence
from .grape import GrapeProblem, fidelity, optimize, rotation_target
from .manifest import RunManifest
from .noisespec import (
    db_below_erl,
    deduct_t1,
    erl_noise_line,
    fit_lorentzian,
    reconstruct_spectrum,
)
from .protocol import nv3_config, run_experiment, simulate_fringe
from .sensitivity import (
    erl_table_check,
    fit_fringe,
    load_reference_magnetometers,
    magnetometer_records_from_csv,
    sensitivity_from_timeseries,
)
from .sequences import CoherenceCurve, DDSequence
from .tables import write_table
from . import synth

EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _run(fn):
    try:
        fn()
    except ArithmeticError as exc:
        _fail(EXIT_NUMERICAL, str(exc))
    except (ValueError, KeyError, OSError) as exc:
        _fail(EXIT_DATA, str(exc))


def _write(out_dir: Path, name: str, text: str, manifest: RunManifest) -> Path:
    path = out_dir / name
    path.write_text(text)
    manifest.add_output(path)
    return path


def _axes_json(**columns) -> str:
    return json.dumps({"columns": columns}, sort_keys=True, indent=2) + "\n"


def _new_manifest(ctx) -> RunManifest:
    return RunManifest(
        command=list(ctx.obj["argv"]),
        seed=ctx.obj["seed"],
        version=__version__,
        config_path=ctx.obj["config"],
    )


class _RecordingGroup(click.Group):
    """Keeps the argv it was invoked with; under ``rerun``, sys.argv is the rerun's."""

    def parse_args(self, ctx, args):
        ctx.meta["argv"] = list(args)
        return super().parse_args(ctx, args)


@click.group(cls=_RecordingGroup)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--out",
    type=click.Path(file_okay=False, path_type=Path),
    default=".",
    show_default=True,
    help="Output directory.",
)
@click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON configuration file.",
)
@click.option("--threads", type=int, default=1, show_default=True)
@click.version_option(version=__version__)
@click.pass_context
def main(ctx, seed, out, config, threads):
    """Single-spin magnetometry toolkit: fits, simulations, benchmarks."""
    out.mkdir(parents=True, exist_ok=True)
    ctx.obj = {
        "seed": seed,
        "out": out,
        "config": config,
        "threads": max(1, threads),
        "argv": ctx.meta["argv"],
    }


def _load_config(ctx) -> dict:
    if ctx.obj["config"] is None:
        return {}
    return json.loads(Path(ctx.obj["config"]).read_text())


@main.command()
@click.argument("dataset_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("sidecar_json", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def depth(ctx, dataset_csv, sidecar_json):
    """Fit the emitter depth from a proton-NMR dip scan."""

    def body():
        out = ctx.obj["out"]
        manifest = _new_manifest(ctx)
        manifest.add_input(dataset_csv)
        manifest.add_input(sidecar_json)
        data = DepthDataset.from_csv(
            Path(dataset_csv).read_text(), Path(sidecar_json).read_text()
        )
        fit = fit_depth(data)
        model = ProtonBathModel(
            rho=data.rho,
            d_nv=fit.d_nv,
            t2n_star=2.0 / fit.linewidth,
        )
        fit_curve = proton_signal_coherence(
            model, data.n_pulses, data.taus, data.b0
        )
        report = {
            "d_nv_m": fit.d_nv,
            "d_nv_sigma_m": fit.d_nv_sigma,
            "linewidth_rad_s": fit.linewidth,
            "linewidth_sigma_rad_s": fit.linewidth_sigma,
            "n_pulses": data.n_pulses,
            "b0_tesla": data.b0,
            "sample": data.sample,
        }
        _write(
            out,
            "depth_report.json",
            json.dumps(report, sort_keys=True, indent=2) + "\n",
            manifest,
        )
        curve = write_table("tau_s,coherence_fit", data.taus, fit_curve)
        _write(out, "depth_fit_curve.csv", curve, manifest)
        _write(
            out,
            "depth_fit_curve.axes.json",
            _axes_json(
                tau_s="pulse spacing (s)",
                coherence_fit="fitted coherence (dimensionless)",
            ),
            manifest,
        )
        manifest.write(out)
        click.echo(
            f"depth {fit.d_nv * 1e9:.2f} +- {fit.d_nv_sigma * 1e9:.2f} nm"
        )

    _run(body)


@main.command()
@click.argument(
    "curves_dir", type=click.Path(exists=True, file_okay=False)
)
@click.option("--t1", type=float, default=None, help="Deduct exp(-t/T1).")
@click.option(
    "--l-eff", type=float, default=31.7e-9, show_default=True,
    help="Sensor dimension for the ERL noise-line comparison (m).",
)
@click.pass_context
def noise(ctx, curves_dir, t1, l_eff):
    """Invert coherence-decay curves into a noise spectrum."""

    def body():
        out = ctx.obj["out"]
        manifest = _new_manifest(ctx)
        points = []
        csvs = sorted(Path(curves_dir).glob("*.csv"))
        if not csvs:
            raise ValueError(f"no coherence curves in {curves_dir}")
        for csv_path in csvs:
            sidecar_path = csv_path.with_suffix(".json")
            if not sidecar_path.exists():
                raise ValueError(f"missing sidecar for {csv_path.name}")
            manifest.add_input(csv_path)
            manifest.add_input(sidecar_path)
            curve = CoherenceCurve.from_csv(
                csv_path.read_text(), sidecar_path.read_text()
            )
            if t1 is not None:
                curve = deduct_t1(curve, t1)
            for t, c in zip(curve.times, curve.coherence):
                if 0.0 < c < 1.0:
                    points.append(
                        (DDSequence(curve.family, curve.n_pulses, t), c)
                    )
        spec, info = reconstruct_spectrum(points, n=1)
        _write(out, "spectrum.csv", spec.to_csv(), manifest)
        _write(
            out,
            "spectrum.axes.json",
            _axes_json(
                omega_rad_s="angular frequency (rad/s)",
                s_t2_per_hz="noise spectral density (T^2/Hz)",
            ),
            manifest,
        )
        lor = fit_lorentzian(spec)
        _write(out, "lorentzian.json", lor.to_json() + "\n", manifest)
        floor = float(np.min(spec.s[spec.s > 0]))
        comparison = {
            "l_eff_m": l_eff,
            "erl_noise_line_t2_per_hz": erl_noise_line(l_eff),
            "spectrum_floor_t2_per_hz": floor,
            "db_below_erl_line": db_below_erl(floor, l_eff),
            "iterations": info["iterations"],
            "extrapolated": info["extrapolated"],
        }
        _write(
            out,
            "erl_comparison.json",
            json.dumps(comparison, sort_keys=True, indent=2) + "\n",
            manifest,
        )
        manifest.write(out)
        click.echo(
            f"spectrum over {len(spec.omega)} bands; floor "
            f"{comparison['db_below_erl_line']:.1f} dB below the ERL line"
        )

    _run(body)


@main.command()
@click.argument("problem_json", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def grape(ctx, problem_json):
    """Optimize a shaped control pulse for a rotation target."""

    def body():
        out = ctx.obj["out"]
        manifest = _new_manifest(ctx)
        manifest.add_input(problem_json)
        spec = json.loads(Path(problem_json).read_text())
        angle = float(spec["angle_deg"]) * np.pi / 180.0
        problem = GrapeProblem(
            target=rotation_target(angle, spec.get("axis", "x")),
            n_pieces=int(spec["n_pieces"]),
            piece_duration=float(spec["piece_duration_s"]),
            max_rabi_hz=float(spec["max_rabi_hz"]),
        )
        result = optimize(
            problem,
            seed=ctx.obj["seed"],
            target_infidelity=float(spec.get("target_infidelity", 1e-5)),
        )
        _write(out, "waveform.csv", result.waveform.to_csv(), manifest)
        trace = write_table(
            "iteration,fidelity", range(len(result.trace)), result.trace
        )
        _write(out, "fidelity_trace.csv", trace, manifest)
        summary = {
            "fidelity": result.fidelity,
            "converged": result.converged,
            "best_effort": not result.converged,
            "n_iterations": result.n_iterations,
            "verified_fidelity": fidelity(problem, result.waveform),
        }
        _write(
            out,
            "grape_summary.json",
            json.dumps(summary, sort_keys=True, indent=2) + "\n",
            manifest,
        )
        manifest.write(out)
        click.echo(f"fidelity {result.fidelity:.6f} converged={result.converged}")

    _run(body)


@main.command()
@click.pass_context
def sense(ctx):
    """Simulate a magnetometry run: fringe, sensitivity curve, budget."""

    def body():
        out = ctx.obj["out"]
        manifest = _new_manifest(ctx)
        if ctx.obj["config"]:
            manifest.add_input(ctx.obj["config"])
        cfg_json = _load_config(ctx)
        config = nv3_config()
        signal = float(cfg_json.get("signal_t", 1e-9))
        n_shots = int(cfg_json.get("n_shots", 120000))
        v_lo, v_hi, v_n = cfg_json.get("volts", [0.0, 0.4, 25])
        shots_per_point = int(cfg_json.get("shots_per_point", 4000))
        seed = ctx.obj["seed"]

        volts, counts = simulate_fringe(
            config,
            np.linspace(v_lo, v_hi, int(v_n)),
            shots_per_point=shots_per_point,
            seed=seed,
        )
        fringe_table = write_table("volts,mean_photons", volts, counts)
        _write(out, "fringe.csv", fringe_table, manifest)
        _write(
            out,
            "fringe.axes.json",
            _axes_json(
                volts="applied AWG voltage (V)",
                mean_photons="mean readout photons per shot",
            ),
            manifest,
        )
        fringe = fit_fringe(volts, counts, config.budget.t_c)

        run = run_experiment(
            config,
            signal,
            n_shots,
            seed=seed,
            workers=ctx.obj["threads"],
        )
        times, eta, asym = sensitivity_from_timeseries(
            run.demodulated(), signal, config.shot_duration
        )
        eta_table = write_table("averaging_time_s,eta_t_per_sqrt_hz", times, eta)
        _write(out, "eta_vs_time.csv", eta_table, manifest)
        _write(
            out,
            "eta_vs_time.axes.json",
            _axes_json(
                averaging_time_s="averaging time (s)",
                eta_t_per_sqrt_hz="sensitivity (T/sqrt(Hz))",
            ),
            manifest,
        )
        _write(out, "shots.csv", run.to_csv(), manifest)
        budget = json.loads(config.budget.to_json())
        budget["eta_asymptote_t_per_sqrt_hz"] = asym
        budget["fitted_b_v_t_per_v"] = fringe.b_v
        budget["configured_b_v_t_per_v"] = config.b_v
        _write(
            out,
            "budget.json",
            json.dumps(budget, sort_keys=True, indent=2) + "\n",
            manifest,
        )
        manifest.write(out)
        click.echo(
            f"eta asymptote {asym * 1e9:.3f} nT/sqrt(Hz); "
            f"B_V {fringe.b_v * 1e9:.1f} nT/V"
        )

    _run(body)


@main.command()
@click.argument(
    "table_csv",
    type=click.Path(exists=True, dir_okay=False),
    required=False,
)
@click.pass_context
def erl(ctx, table_csv):
    """Cross-platform energy-resolution benchmark."""

    def body():
        out = ctx.obj["out"]
        manifest = _new_manifest(ctx)
        if table_csv is None:
            records = load_reference_magnetometers()
        else:
            manifest.add_input(table_csv)
            records = magnetometer_records_from_csv(Path(table_csv).read_text())
        report = erl_table_check(records)
        _write(
            out,
            "erl_report.json",
            json.dumps(
                {"rows": report, "all_consistent": all(r["consistent"] for r in report)},
                sort_keys=True,
                indent=2,
            )
            + "\n",
            manifest,
        )
        scatter = write_table(
            "l_eff_m,e_r_hbar,kind",
            [r["l_eff_m"] for r in report],
            [r["e_r_computed_hbar"] for r in report],
            [r["kind"] for r in report],
        )
        _write(out, "erl_scatter.csv", scatter, manifest)
        _write(
            out,
            "erl_scatter.axes.json",
            _axes_json(
                l_eff_m="effective sensor dimension (m)",
                e_r_hbar="energy resolution per bandwidth (hbar)",
                kind="magnetometer type",
            ),
            manifest,
        )
        manifest.write(out)
        n_bad = sum(not r["consistent"] for r in report)
        click.echo(f"{len(report)} rows checked, {n_bad} inconsistent")

    _run(body)


@main.group()
def gen():
    """Generate synthetic datasets."""


@gen.command("depth")
@click.option("--depth-nm", type=float, default=31.7, show_default=True)
@click.option("--pulses", type=int, default=4096, show_default=True)
@click.option("--noise", type=float, default=0.005, show_default=True)
@click.option("--suite", is_flag=True, help="Emit all six reference depths.")
@click.pass_context
def gen_depth(ctx, depth_nm, pulses, noise, suite):
    """Synthetic proton-NMR dip scans."""

    def body():
        out = ctx.obj["out"]
        manifest = _new_manifest(ctx)
        if suite:
            bundle = synth.make_depth_suite(noise=noise, seed=ctx.obj["seed"] + 10)
            items = [
                (data, f"depth_{d * 1e9:.1f}nm".replace(".", "p"))
                for data, d, _ in bundle
            ]
        else:
            data = synth.make_depth_dataset(
                depth_nm * 1e-9, pulses, noise=noise, seed=ctx.obj["seed"]
            )
            items = [(data, "depth_dataset")]
        for data, stem in items:
            _write(out, f"{stem}.csv", data.to_csv(), manifest)
            _write(out, f"{stem}.json", data.sidecar() + "\n", manifest)
        manifest.write(out)
        click.echo(f"wrote {len(items)} dataset(s)")

    _run(body)


@gen.command("noise")
@click.option("--noise", type=float, default=0.0, show_default=True)
@click.option("--db-below", type=float, default=21.6, show_default=True)
@click.pass_context
def gen_noise(ctx, noise, db_below):
    """Coherence-decay family from a surface-noise model spectrum."""

    def body():
        out = ctx.obj["out"]
        manifest = _new_manifest(ctx)
        spectrum = synth.nv3_floor_spectrum(db_below=db_below)
        curves = synth.make_coherence_family(
            spectrum, noise=noise, seed=ctx.obj["seed"]
        )
        for curve in curves:
            stem = f"coherence_n{curve.n_pulses}"
            _write(out, f"{stem}.csv", curve.to_csv(), manifest)
            _write(out, f"{stem}.json", curve.sidecar() + "\n", manifest)
        manifest.write(out)
        click.echo(f"wrote {len(curves)} curves")

    _run(body)


@main.command()
@click.argument("manifest_json", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def rerun(ctx, manifest_json):
    """Re-execute a recorded run and verify byte-identical outputs."""
    try:
        recorded = RunManifest.load(manifest_json)
    except (OSError, ValueError, KeyError) as exc:
        _fail(EXIT_DATA, f"cannot read manifest: {exc}")
    main.main(args=recorded.command, standalone_mode=False, obj=None)
    stale = recorded.verify_outputs()
    if stale:
        _fail(
            EXIT_NUMERICAL,
            "outputs differ from the manifest: " + ", ".join(stale),
        )
    click.echo("outputs reproduced byte-identically")


if __name__ == "__main__":
    main()
