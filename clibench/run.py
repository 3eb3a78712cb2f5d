"""Benchmark of the nvsense CLI pipelines.

    python3 clibench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of an nvsense source tree; the program is imported from
its ``src`` directory. Each CLI step runs as a fresh interpreter doing
what the ``nvsense`` console script does, so each pays the start-up a user
pays. A run starts one ``nvsense --help`` that is thrown away (it fills
the caches), then repeats whole rounds of its workload's pipeline until
``--seconds`` have passed (at least one round), checking every round's
outputs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``setup_s``, the median time from a fresh
interpreter until ``nvsense.cli`` is imported, over every step process
(topped up with ``nvsense --help`` starts to at least five samples), and
the medians over rounds of ``wall_s``, ``cpu_s`` and ``peak_rss_mb``. With
``--trace 1`` it holds the per-layer metrics of rounds whose steps run
under ``tracer.py``, plus ``trace.overhead_s``, the traced wall time less
that of an untraced round run alongside. Each run also leaves a record
with its host, rounds and operation counts under ``.clibench_work/records``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ".clibench_work"
MIN_SETUP_SAMPLES = 5
IMPORT_MARK = "clibench: nvsense.cli imported at "
# the ``nvsense`` console script, plus a time stamp once the CLI is imported
LAUNCHER = (
    "import sys, time; from nvsense.cli import main; "
    f"sys.stderr.write({IMPORT_MARK!r} + repr(time.monotonic()) + '\\n'); sys.exit(main())"
)


def python_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts processes in a workload's directory and keeps their logs."""

    def __init__(self, root: Path, log_dir: Path):
        self.env = python_env(root)
        self.log_dir = log_dir
        self.setup_samples = []

    def spawn(self, argv, cwd, stem):
        """Run one process to its end: (exit code, wall s, cpu s, peak RSS MB, stdout).

        A process started through LAUNCHER adds its start-up time to
        ``setup_samples``.
        """
        out_path = self.log_dir / f"{stem}.out"
        err_path = self.log_dir / f"{stem}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        for line in err_path.read_text().splitlines():
            if line.startswith(IMPORT_MARK):
                self.setup_samples.append(float(line[len(IMPORT_MARK):]) - start)
                break
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, out_path.read_text()

    def start_cli(self, cwd, stem):
        """One ``nvsense --help``; raises if the CLI cannot start."""
        if self.spawn([sys.executable, "-c", LAUNCHER, "--help"], cwd, stem)[0] != 0:
            raise RuntimeError(f"nvsense does not start; see {self.log_dir / stem}.err")

    def run_round(self, load, traced):
        """One pass of the workload's pipeline; untimed work happens between steps."""
        load.prepare()
        wall = cpu = rss = 0.0
        failed, stdouts, spans = 0, [], []
        steps = load.steps()
        for i, argv in enumerate(steps):
            if traced:
                stem = f"traced-{i}"
                spans_path = self.log_dir / f"{stem}.spans.json"
                spans_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *argv]
            else:
                stem = f"step-{i}"
                cmd = [sys.executable, "-c", LAUNCHER, *argv]
            code, w, c, r, stdout = self.spawn(cmd, load.cwd, stem)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            stdouts.append(stdout)
            if code != 0:
                failed += 1
                err = (self.log_dir / f"{stem}.err").read_text().strip().splitlines()[-3:]
                print(f"step {argv} exited {code}: {' | '.join(err)}", file=sys.stderr)
            if traced and spans_path.exists():
                spans.append(json.loads(spans_path.read_text()))
            load.after_step(i)
        try:
            problems = [] if failed else load.check(stdouts)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {
            "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "attempted": len(steps), "failed": failed, "correct": not problems,
            "layers": tracer.per_layer(spans) if traced else None,
        }


def host() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "platform": platform.platform(),
    }


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds)


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "nvsense" / "cli.py").is_file():
        print("error: run from the root of an nvsense source tree (no src/nvsense/cli.py here)", file=sys.stderr)
        return 2
    work = root / WORK_DIR / args.workload
    log_dir = root / WORK_DIR / "logs" / args.workload
    log_dir.mkdir(parents=True, exist_ok=True)
    load = WORKLOADS[args.workload](work, args.seed)
    runner = Runner(root, log_dir)

    runner.start_cli(root, "warm-up")
    runner.setup_samples.clear()
    rounds, traced_rounds = [], []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(runner.run_round(load, traced=False))
        if args.trace:
            traced_rounds.append(runner.run_round(load, traced=True))
    while not args.trace and len(runner.setup_samples) < MIN_SETUP_SAMPLES:
        runner.start_cli(root, f"start-{len(runner.setup_samples)}")
    every = rounds + traced_rounds
    result = {
        "correct": all(r["correct"] for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
    }
    if args.trace:
        layers = traced_rounds[0]["layers"]
        metrics = {name: statistics.median(r["layers"][name] for r in traced_rounds) for name in layers}
        metrics["trace.overhead_s"] = median_of(traced_rounds, "wall_s") - median_of(rounds, "wall_s")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(runner.setup_samples),
            "wall_s": median_of(rounds, "wall_s"),
            "cpu_s": median_of(rounds, "cpu_s"),
            "peak_rss_mb": median_of(rounds, "peak_rss_mb"),
        }
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    record_dir = root / WORK_DIR / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host(), **result,
        "setup_samples": runner.setup_samples,
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
        "traced_rounds": [{k: v for k, v in r.items() if k != "layers"} for r in traced_rounds],
    }
    record_path = record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"{args.workload}: {len(rounds)} round(s), {result['attempted']} steps attempted, "
        f"{result['failed']} failed; record in {record_path.relative_to(root)}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
