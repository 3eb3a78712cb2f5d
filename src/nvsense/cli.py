"""Command-line interface.

Subcommands: depth, noise, grape, sense, erl, gen, rerun. ``main`` builds
one ``_Run`` from the global options and every command receives it; the
run writes a manifest of its inputs and outputs, unless ``rerun`` is
replaying a recorded one. Plot outputs are plain CSV plus a JSON axis
description. Exit codes: 0 success, 1 a stdout pipe that its reader has
already closed (click catches the EPIPE of its flush and prints nothing),
2 usage (such as a --seed outside [0, 2**63 - 1]), 3 bad input data (a
``ValueError``: a JSON input that ``errors.read_object`` or the library
refuses, a CSV line or value that its table refuses, an unreadable file, a
numeric option or ``--out`` that the command cannot use, or a manifest
that ``rerun`` cannot replay), 4 numerical failure (``errors.NumericalError``
or any other ``ArithmeticError``, or an array too large to allocate, a
``MemoryError``).

A standalone process (the ``nvsense`` script, ``python -m nvsense``) ends
with ``os._exit`` as soon as its exit code is known and its streams are
flushed, so it skips exit handlers and interpreter finalization; an
in-process call of ``main`` keeps click's normal return or ``SystemExit``.
"""

import contextlib
import functools
import hashlib
import importlib.util
import json
import math
import os
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path

# Before numpy loads, which is when OpenBLAS sizes its thread pool: the CLI's
# BLAS calls (GRAPE's 2x2 products, fits of at most 4 parameters) are too small
# to split, and idle workers of the pools numpy and scipy each load spin on the
# CPUs. A value the user has set is kept. Library users' processes are untouched.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click
import numpy as np

from . import __version__
from .depth import DepthDataset, fit_depth
from .depth import ProtonBathModel, proton_signal_coherence
from .errors import POSITIVE, REQUIRED, InputError, NumericalError, TableError
from .errors import as_float, as_int, load_json, read_object
from .manifest import RunManifest
from .sequences import CoherenceCurve, DDSequence, check_train
from .tables import table_blocks


def _lazy(name: str):
    """The package module ``name``, bound now and executed on its first
    attribute access: the importlib docs' lazy-import recipe
    (``importlib.util.LazyLoader``). It is registered in ``sys.modules`` and
    on the package, as an import would; a module already imported is
    returned as it is. A command that never reads the module never compiles
    or runs it."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# the layers only some commands use; ``grape`` is also the command's name
grape_module = _lazy("grape")
noisespec = _lazy("noisespec")
protocol = _lazy("protocol")
sensitivity = _lazy("sensitivity")
synth = _lazy("synth")

EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _forked(what: str, func, *args):
    """Run ``func(*args)`` in a child process while the ``with`` block runs.

    Yields ``result``, which waits for the child and returns ``func``'s value
    or raises its exception; a child that ends without one (killed, or its
    pickle unreadable) raises ``NumericalError`` naming ``what``. The child
    gets a copy of the process as it is at the fork, so the caller forks while
    it has one thread; it writes only its pickled outcome to a pipe and ends
    with ``os._exit``. The child is reaped before the block is left, and
    killed first if the block is left without ``result`` called."""
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            import gc

            # a collection would write to, and so copy, every page of objects
            # the child shares with its parent; the short-lived child skips them
            gc.disable()
            os.close(read)
            try:
                outcome = (True, func(*args))
            except Exception as exc:
                outcome = (False, exc)
            with open(write, "wb") as pipe:
                pickle.dump(outcome, pipe)
        finally:
            os._exit(0)
    os.close(write)
    pipe = open(read, "rb")
    status = None

    def result():
        nonlocal status
        data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        try:
            ok, value = pickle.loads(data)
        except Exception:
            code = os.waitstatus_to_exitcode(status)
            raise NumericalError(
                f"{what} ended without a result (child exit code {code})"
            ) from None
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        if status is None:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@dataclass
class _Run:
    """One recorded run of a command: the global options, the argv they came
    from, and the manifest of every input it reads and every output it
    writes under ``out``. A ``replay`` run is one that ``rerun`` invoked to
    check a recorded manifest; it records no digest and writes no manifest."""

    argv: list
    seed: int
    out: Path
    config: str | None
    threads: int
    replay: bool
    last_input: str | None = None
    last_table: str | None = None

    def __post_init__(self):
        self.manifest = RunManifest(self.argv, self.seed, __version__, self.config)

    def input(self, path) -> str:
        """Read ``path`` once; record its bytes' SHA-256; return them as text."""
        data = Path(path).read_bytes()
        if not self.replay:
            self.manifest.inputs[str(path)] = hashlib.sha256(data).hexdigest()
        self.last_input = path
        try:
            return data.decode()
        except UnicodeDecodeError as exc:  # a ValueError, which names no file
            raise InputError(exc) from exc

    def table(self, path) -> str:
        """``input`` of a CSV table, whose line errors name ``path`` even
        once the table's sidecar has been read too."""
        self.last_table = path
        return self.input(path)

    def text(self, name: str, text):
        """Write ``text``, a str or an iterable of str blocks, to ``name``
        under ``out`` and record it as an output."""
        path = self.out / name
        with open(path, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        if not self.replay:
            self.manifest.add_output(path)

    def json(self, name: str, obj):
        self.text(name, json.dumps(obj, sort_keys=True, indent=2) + "\n")

    def plot(self, stem: str, **columns):
        """``stem.csv`` and its axis description ``stem.axes.json``, from
        columns given as ``name=(description, values)``."""
        values = [v for _, v in columns.values()]
        self.text(f"{stem}.csv", table_blocks(",".join(columns), *values))
        axes = {name: description for name, (description, _) in columns.items()}
        self.json(f"{stem}.axes.json", {"columns": axes})

    def scans(self, items):
        """``stem.csv`` and its sidecar ``stem.json`` for each (scan, stem)."""
        for scan, stem in items:
            self.text(f"{stem}.csv", scan.to_csv())
            self.text(f"{stem}.json", scan.sidecar() + "\n")


def _recorded(body):
    """A command callback that runs ``body(run, **params)`` as a recorded run.

    The body returns the line to echo; the manifest is written after it,
    unless the run is a replay. An ``ArithmeticError`` or a ``MemoryError``
    exits 4; a ``ValueError``, ``KeyError``, ``TypeError`` or ``OSError`` exits 3.
    Every command reads its JSON input last, so a ``TypeError``, a missing
    key, a ``JSONDecodeError`` or an ``InputError`` names that input first;
    a ``TableError`` names the table read last.
    """

    @functools.wraps(body)
    @click.pass_obj
    def callback(run, **params):
        try:
            message = body(run, **params)
            if not run.replay:
                (run.out / "manifest.json").write_text(run.manifest.to_json() + "\n")
            click.echo(message)
        except ArithmeticError as exc:
            _fail(EXIT_NUMERICAL, str(exc))
        except MemoryError as exc:  # numpy's names the array it could not allocate
            _fail(EXIT_NUMERICAL, str(exc) or "out of memory")
        except (TypeError, KeyError, json.JSONDecodeError, InputError) as exc:
            path = run.last_table if isinstance(exc, TableError) else run.last_input
            where = f"{path}: " if path else ""
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            _fail(EXIT_DATA, f"{where}{what}")
        except (ValueError, OSError) as exc:
            _fail(EXIT_DATA, str(exc))

    return callback


class _RecordingGroup(click.Group):
    """Keeps the argv it was invoked with; under ``rerun``, sys.argv is the rerun's.

    A standalone call, one that reads its argv from ``sys.argv``, ends the
    process with ``os._exit`` once the standard streams are flushed: every
    output is closed by then, and interpreter finalization would only raise
    the peak RSS. A call given ``args`` or ``standalone_mode=False``
    (``CliRunner``, ``rerun``'s replay) returns or raises as click does."""

    def parse_args(self, ctx, args):
        ctx.meta["argv"] = list(args)
        return super().parse_args(ctx, args)

    def main(self, args=None, **extra):
        if args is not None or not extra.get("standalone_mode", True):
            return super().main(args, **extra)
        try:
            super().main(**extra)
        except SystemExit as exc:  # click ends every standalone call with one
            code = exc.code
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when its descriptor was closed at start
                stream.flush()
        os._exit(code)


@click.group(cls=_RecordingGroup)
@click.option("--seed", type=click.IntRange(0, 2**63 - 1), default=0, show_default=True)
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
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
@click.version_option(version=__version__)
@click.pass_context
def main(ctx, seed, out, config, threads):
    """Single-spin magnetometry toolkit: fits, simulations, benchmarks."""
    # a rerun passes the manifest it replays as ``obj``
    replay = ctx.obj is not None
    if replay and ctx.invoked_subcommand == "rerun":
        _fail(EXIT_DATA, f"cannot read manifest: {ctx.obj} records a rerun")
    missing = [p for p in out.parents if not os.path.exists(p)]  # innermost first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        for parent in missing:  # those this call made, and only while empty
            with contextlib.suppress(OSError):
                parent.rmdir()
        _fail(EXIT_DATA, f"cannot create output directory {out}: {exc.strerror}")
    ctx.obj = _Run(ctx.meta["argv"], seed, out, config, threads, replay)


@main.command()
@click.argument("dataset_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("sidecar_json", type=click.Path(exists=True, dir_okay=False))
@_recorded
def depth(run, dataset_csv, sidecar_json):
    """Fit the emitter depth from a proton-NMR dip scan."""
    data = DepthDataset.from_csv(run.table(dataset_csv), run.input(sidecar_json))
    fit = fit_depth(data)
    model = ProtonBathModel(
        rho=data.rho,
        d_nv=fit.d_nv,
        t2n_star=2.0 / fit.linewidth,
    )
    fit_curve = proton_signal_coherence(model, data.n_pulses, data.taus, data.b0)
    run.json(
        "depth_report.json",
        {
            "d_nv_m": fit.d_nv,
            "d_nv_sigma_m": fit.d_nv_sigma,
            "linewidth_rad_s": fit.linewidth,
            "linewidth_sigma_rad_s": fit.linewidth_sigma,
            "n_pulses": data.n_pulses,
            "b0_tesla": data.b0,
            "sample": data.sample,
        },
    )
    run.plot(
        "depth_fit_curve",
        tau_s=("pulse spacing (s)", data.taus),
        coherence_fit=("fitted coherence (dimensionless)", fit_curve),
    )
    return f"depth {fit.d_nv * 1e9:.2f} +- {fit.d_nv_sigma * 1e9:.2f} nm"


@main.command()
@click.argument(
    "curves_dir", type=click.Path(exists=True, file_okay=False)
)
@click.option("--t1", type=float, default=None, help="Deduct exp(-t/T1).")
@click.option(
    "--l-eff", type=float, default=31.7e-9, show_default=True,
    help="Sensor dimension for the ERL noise-line comparison (m).",
)
@_recorded
def noise(run, curves_dir, t1, l_eff):
    """Invert coherence-decay curves into a noise spectrum."""
    # refuses a bad --l-eff before any output
    erl_line = noisespec.erl_noise_line(l_eff)
    points = []
    csvs = sorted(Path(curves_dir).glob("*.csv"))
    if not csvs:
        raise ValueError(f"no coherence curves in {curves_dir}")
    for csv_path in csvs:
        sidecar_path = csv_path.with_suffix(".json")
        if not sidecar_path.exists():
            raise ValueError(f"missing sidecar for {csv_path.name}")
        curve = CoherenceCurve.from_csv(run.table(csv_path), run.input(sidecar_path))
        if curve.n_pulses == 0:
            raise ValueError(f"{sidecar_path}: a curve with N = 0 has no passband")
        if t1 is not None:
            curve = noisespec.deduct_t1(curve, t1)
        for t, c in zip(curve.times, curve.coherence):
            if 0.0 < c < 1.0:
                points.append((DDSequence(curve.family, curve.n_pulses, t), c))
    spec, info = noisespec.reconstruct_spectrum(points)
    fit = info["fit"]
    if not fit.floor > fit.floor_sigma:
        raise NumericalError(
            f"noise floor not resolved: {fit.floor:.3g} +- {fit.floor_sigma:.3g} T^2/Hz"
        )
    run.plot(
        "spectrum",
        omega_rad_s=("angular frequency (rad/s)", spec.omega),
        s_t2_per_hz=("noise spectral density (T^2/Hz)", spec.s),
    )
    run.text("lorentzian.json", fit.to_json() + "\n")
    comparison = {
        "l_eff_m": l_eff,
        "erl_noise_line_t2_per_hz": erl_line,
        "floor_t2_per_hz": fit.floor,
        "floor_sigma_t2_per_hz": fit.floor_sigma,
        "db_below_erl_line": noisespec.db_below_erl(fit.floor, l_eff),
        "iterations": info["iterations"],
    }
    run.json("erl_comparison.json", comparison)
    return (
        f"spectrum over {len(spec.omega)} bands; floor "
        f"{comparison['db_below_erl_line']:.1f} dB below the ERL line"
    )


# a grape problem's keys, as errors.read_object reads them
_GRAPE = {
    "angle_deg": (
        as_float, REQUIRED,
        (lambda a: np.isfinite(a * np.pi / 180.0), "gives an angle that is not finite"),
    ),
    "axis": (None, "x"),
    "n_pieces": (as_int, REQUIRED),
    "piece_duration_s": (as_float, REQUIRED),
    "max_rabi_hz": (as_float, REQUIRED),
    "target_infidelity": (as_float, 1e-5, (lambda f: 0 < f < 1, "must be in (0, 1)")),
}


@main.command()
@click.argument("problem_json", type=click.Path(exists=True, dir_okay=False))
@_recorded
def grape(run, problem_json):
    """Optimize a shaped control pulse for a rotation target."""
    spec = read_object(load_json(run.input(problem_json)), _GRAPE)
    angle_deg, axis, n_pieces, piece_duration, max_rabi_hz, target_infidelity = spec
    try:  # the problem's own rules, whose messages name no file
        problem = grape_module.GrapeProblem(
            grape_module.rotation_target(angle_deg * np.pi / 180.0, axis),
            n_pieces, piece_duration, max_rabi_hz,
        )
    except ValueError as exc:
        raise InputError(exc) from exc
    result = grape_module.optimize(
        problem, seed=run.seed, target_infidelity=target_infidelity
    )
    run.text("waveform.csv", result.waveform.to_csv())
    run.text(
        "fidelity_trace.csv",
        table_blocks("iteration,fidelity", range(len(result.trace)), result.trace),
    )
    run.json(
        "grape_summary.json",
        {
            "fidelity": result.fidelity,
            "converged": result.converged,
            "best_effort": not result.converged,
            "n_iterations": result.n_iterations,
            "verified_fidelity": grape_module.fidelity(problem, result.waveform),
        },
    )
    return f"fidelity {result.fidelity:.6f} converged={result.converged}"


def _sweep(volts, key: str):
    """The grid of a fringe sweep [lo, hi, count] with lo != hi and 8 <= count
    < 2**59: ``fit_fringe`` takes 8 points or more, and numpy cannot count
    the bytes of a float grid near 2**60 points (it is out of memory first)."""
    if not (isinstance(volts, list) and len(volts) == 3):
        raise InputError(f"volts must be [lo, hi, count], got {volts!r}")
    lo, hi = (as_float(v, key) for v in volts[:2])
    count = as_int(volts[2], "volts count")
    if lo == hi or not 8 <= count < 2**59:
        raise InputError(
            f"volts must be [lo, hi, count] with lo != hi and 8 <= count < 2**59, got {volts!r}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linspace(lo, hi, count)


# a sense config's keys; n_shots >= 100 fills eta(t)'s shortest window
_SENSE = {
    "signal_t": (as_float, 1e-9, POSITIVE),
    "n_shots": (as_int, 120000, (lambda n: n >= 100, "must be >= 100")),
    "volts": (_sweep, [0.0, 0.4, 25]),
    "shots_per_point": (as_int, 4000, (lambda n: n >= 1, "must be >= 1")),
}


def _sense_settings(cfg, config) -> tuple:
    """(signal_t, n_shots, fringe volts, shots_per_point) of the ``sense``
    config ``cfg``, read by ``_SENSE`` before anything is simulated. Also
    refused: a field whose phase gamma_e B t_c under the protocol ``config``
    is not finite, as its sine and so its counts would be NaN, and a sweep
    that the fringe fit's ``parabola_basis`` cannot check."""
    signal, n_shots, grid, shots_per_point = read_object(cfg, _SENSE)
    gamma_e, t_c = config.budget.gamma_e, config.budget.t_c
    # each phase is formed as the protocol forms it, so the test is exact
    if not np.isfinite(gamma_e * signal * t_c):
        raise InputError(f"signal_t gives a phase that is not finite, got {signal!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        phases = gamma_e * (config.b_v * grid) * t_c
    if not np.all(np.isfinite(phases)):
        raise InputError(f"volts give phases that are not finite, got {cfg['volts']!r}")
    try:
        sensitivity.parabola_basis(grid)
    except ValueError as exc:  # names the sweep, not the config
        raise InputError(exc) from exc
    return signal, n_shots, grid, shots_per_point


@main.command()
@_recorded
def sense(run):
    """Simulate a magnetometry run: fringe, sensitivity curve, budget."""
    cfg = load_json(run.input(run.config)) if run.config else {}
    config = protocol.nv3_config()
    signal, n_shots, volts, shots_per_point = _sense_settings(cfg, config)

    volts, counts = protocol.simulate_fringe(
        config, volts, shots_per_point=shots_per_point, seed=run.seed
    )
    run.plot(
        "fringe",
        volts=("applied AWG voltage (V)", volts),
        mean_photons=("mean readout photons per shot", counts),
    )
    # the fringe fit needs the fringe alone, so a child forked here fits it,
    # scipy's import included, while this process runs the shot phase. The
    # child forks before the shot record exists and this process never loads
    # scipy, so the record never sits on top of scipy's memory. The shot
    # table is written block by block, and eta(t) summed from the record
    with _forked(
        "fringe fit", sensitivity.fit_fringe, volts, counts, config.budget.t_c
    ) as fringe_fit:
        shots = protocol.run_experiment(
            config, signal, n_shots, seed=run.seed, workers=run.threads
        )
        run.text("shots.csv", shots.csv_blocks())
        times, eta, asym = sensitivity.sensitivity_from_timeseries(
            shots.photons, shots.signs, signal, config.shot_duration
        )
        del shots
        run.plot(
            "eta_vs_time",
            averaging_time_s=("averaging time (s)", times),
            eta_t_per_sqrt_hz=("sensitivity (T/sqrt(Hz))", eta),
        )
        fringe = fringe_fit()
    budget = config.budget.as_dict()
    budget["eta_asymptote_t_per_sqrt_hz"] = asym
    budget["fitted_b_v_t_per_v"] = fringe.b_v
    budget["configured_b_v_t_per_v"] = config.b_v
    run.json("budget.json", budget)
    return (
        f"eta asymptote {asym * 1e9:.3f} nT/sqrt(Hz); "
        f"B_V {fringe.b_v * 1e9:.1f} nT/V"
    )


@main.command()
@click.argument(
    "table_csv",
    type=click.Path(exists=True, dir_okay=False),
    required=False,
)
@_recorded
def erl(run, table_csv):
    """Cross-platform energy-resolution benchmark."""
    if table_csv is None:
        records = sensitivity.load_reference_magnetometers()
    else:
        records = sensitivity.magnetometer_records_from_csv(run.table(table_csv))
    report = sensitivity.erl_table_check(records)
    run.json(
        "erl_report.json",
        {"rows": report, "all_consistent": all(r["consistent"] for r in report)},
    )
    run.plot(
        "erl_scatter",
        l_eff_m=("effective sensor dimension (m)", [r["l_eff_m"] for r in report]),
        e_r_hbar=(
            "energy resolution per bandwidth (hbar)",
            [r["e_r_computed_hbar"] for r in report],
        ),
        kind=("magnetometer type", [r["kind"] for r in report]),
    )
    n_bad = sum(not r["consistent"] for r in report)
    return f"{len(report)} rows checked, {n_bad} inconsistent"


def _option(name: str, value: float, quantity, what: str):
    """Refuse a numeric option whose value is not finite, or whose
    ``quantity(value)``, the ``what`` the command derives from it, is not
    finite and > 0 or raises (an overflow, numpy's too, or a ValueError): an
    ``InputError`` naming the option, before any output."""
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")
    try:
        with np.errstate(all="raise", under="ignore"):
            derived = quantity(value)
    except (ArithmeticError, ValueError):
        derived = math.nan
    if not 0 < derived < math.inf:
        raise InputError(f"{name} {value!r} gives {what} that is not finite and > 0")


def _check_noise(noise: float):
    """Refuse a ``gen`` --noise, the sigma of the noise added to each point,
    that is not finite and >= 0."""
    if not 0 <= noise < math.inf:
        raise InputError(f"--noise must be finite and >= 0, got {noise!r}")


@main.group()
def gen():
    """Generate synthetic datasets."""


@gen.command("depth")
@click.option("--depth-nm", type=float, default=31.7, show_default=True)
@click.option("--pulses", type=int, default=4096, show_default=True)
@click.option("--noise", type=float, default=0.005, show_default=True)
@click.option("--suite", is_flag=True, help="Emit all six reference depths.")
@_recorded
def gen_depth(run, depth_nm, pulses, noise, suite):
    """Synthetic proton-NMR dip scans."""
    _check_noise(noise)
    if suite:
        bundle = synth.make_depth_suite(noise=noise, seed=run.seed + 10)
        items = [
            (data, f"depth_{d * 1e9:.1f}nm".replace(".", "p"))
            for data, d, _ in bundle
        ]
    else:
        check_train("XY16", pulses)  # the train its sidecar records
        _option(
            "--depth-nm", depth_nm,
            lambda d: 0.95 - synth.make_depth_dataset(d * 1e-9, pulses).coherence.min(),
            f"a dip below coherence 0.95 at --pulses {pulses}",
        )
        data = synth.make_depth_dataset(
            depth_nm * 1e-9, pulses, noise=noise, seed=run.seed
        )
        items = [(data, "depth_dataset")]
    run.scans(items)
    return f"wrote {len(items)} dataset(s)"


@gen.command("noise")
@click.option("--noise", type=float, default=0.0, show_default=True)
@click.option("--db-below", type=float, default=21.6, show_default=True)
@_recorded
def gen_noise(run, noise, db_below):
    """Coherence-decay family from a surface-noise model spectrum."""
    _check_noise(noise)
    _option("--db-below", db_below, synth.nv3_floor, "a noise floor")
    spectrum = synth.nv3_floor_spectrum(db_below=db_below)
    curves = synth.make_coherence_family(spectrum, noise=noise, seed=run.seed)
    run.scans((curve, f"coherence_n{curve.n_pulses}") for curve in curves)
    return f"wrote {len(curves)} curves"


@main.command()
@click.argument("manifest_json", type=click.Path(exists=True, dir_okay=False))
def rerun(manifest_json):
    """Check a recorded run's inputs, re-execute it and verify
    byte-identical outputs."""
    try:
        recorded = RunManifest.from_json(Path(manifest_json).read_text())
        # every recorded command writes an output; --help or --version writes none
        if not recorded.outputs:
            raise ValueError(f"{manifest_json} records no outputs")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _fail(EXIT_DATA, f"cannot read manifest: {exc}")
    # a replay over changed inputs would overwrite the outputs it checks
    stale = recorded.verify_inputs()
    if stale:
        state = "changed" if Path(stale[0]).is_file() else "missing"
        _fail(EXIT_DATA, f"{stale[0]}: recorded input is {state}")
    main.main(args=recorded.command, standalone_mode=False, obj=manifest_json)
    stale = recorded.verify_outputs()
    if stale:
        _fail(
            EXIT_NUMERICAL,
            "outputs differ from the manifest: " + ", ".join(stale),
        )
    click.echo("outputs reproduced byte-identically")
