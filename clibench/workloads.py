"""The three benchmark workloads: their inputs, CLI steps and output checks.

Each workload runs in a fixed working directory, because manifests store
paths relative to it. ``prepare`` writes the inputs, ``steps`` gives the
CLI argv of each step (one fresh process each), ``after_step`` runs
untimed between steps, and ``check`` returns the problems found in the
outputs.
"""

import json
import math
import os
import shutil
from pathlib import Path

import checks


class Workload:
    name = ""
    outputs = ()  # directories the steps write, emptied before each round

    def __init__(self, cwd: Path, seed: int):
        self.cwd = cwd
        self.seed = seed

    def prepare(self):
        self.cwd.mkdir(parents=True, exist_ok=True)
        for name in self.outputs:
            shutil.rmtree(self.cwd / name, ignore_errors=True)

    def steps(self) -> list:
        raise NotImplementedError

    def after_step(self, index: int):
        pass

    def check(self, stdouts: list) -> list:
        raise NotImplementedError


class PulseDesign(Workload):
    """Criterion 7's two GRAPE problems, one ``grape`` process each."""

    name = "pulse-design"
    # (output dir, rotation angle rad, pieces)
    PROBLEMS = (("pi_x", math.pi, 10), ("pi2_x", math.pi / 2, 14))
    # GRAPE's start waveform comes from --seed, and its Armijo iteration
    # count swings with it (1,202 at seed 0, 14,867 at seed 2 for the pi
    # problem), so every run optimizes from the same start
    GRAPE_SEED = 0
    outputs = tuple(p[0] for p in PROBLEMS)

    def prepare(self):
        super().prepare()
        (self.cwd / "problems").mkdir(exist_ok=True)
        for stem, angle, n_pieces in self.PROBLEMS:
            problem = {
                "angle_deg": math.degrees(angle),
                "axis": "x",
                "n_pieces": n_pieces,
                "piece_duration_s": checks.PIECE_S,
                "max_rabi_hz": checks.MAX_RABI_HZ,
                "target_infidelity": checks.TARGET_INFIDELITY,
            }
            (self.cwd / "problems" / f"{stem}.json").write_text(json.dumps(problem, indent=2) + "\n")

    def steps(self):
        return [
            ["--seed", str(self.GRAPE_SEED), "--out", stem, "grape", f"problems/{stem}.json"]
            for stem, _, _ in self.PROBLEMS
        ]

    def check(self, stdouts):
        problems = []
        for stem, angle, n_pieces in self.PROBLEMS:
            problems += checks.check_pulse(self.cwd / stem, angle, n_pieces)
        return problems


class Spectroscopy(Workload):
    """``gen noise`` -> ``noise``, then ``gen depth --suite`` -> six ``depth``."""

    name = "spectroscopy"
    # half the CLI's default 0.005: at 0.005 one of the six fits leaves its
    # quoted error on 13 of 300 seeds, at 0.0025 on none of 400
    DEPTH_NOISE = 0.0025
    outputs = ("curves", "spectrum", "suite") + tuple(
        "fit_" + checks.depth_stem(d) for d, _ in checks.DEPTH_SUITE
    )

    def steps(self):
        seed = ["--seed", str(self.seed)]
        out = [
            seed + ["--out", "curves", "gen", "noise"],
            ["--out", "spectrum", "noise", "curves"],
            seed + ["--out", "suite", "gen", "depth", "--suite", "--noise", str(self.DEPTH_NOISE)],
        ]
        for depth_nm, _ in checks.DEPTH_SUITE:
            stem = checks.depth_stem(depth_nm)
            out.append(["--out", f"fit_{stem}", "depth", f"suite/{stem}.csv", f"suite/{stem}.json"])
        return out

    def check(self, stdouts):
        problems = checks.check_spectrum(self.cwd / "spectrum")
        for depth_nm, tol_nm in checks.DEPTH_SUITE:
            fit_dir = self.cwd / f"fit_{checks.depth_stem(depth_nm)}"
            problems += checks.check_depth(fit_dir, depth_nm, tol_nm)
        return problems


class SensingRun(Workload):
    """``sense`` on about a million shots, then one ``rerun`` of its manifest."""

    name = "sensing-run"
    N_SHOTS = 1_200_000
    outputs = ("run",)

    def prepare(self):
        super().prepare()
        (self.cwd / "inputs").mkdir(exist_ok=True)
        config = {
            "signal_t": 1e-9,
            "n_shots": self.N_SHOTS,
            "volts": [0.0, 0.4, 25],
            "shots_per_point": 4000,
        }
        (self.cwd / "inputs" / "sense.json").write_text(json.dumps(config, indent=2) + "\n")
        self.before_rerun = {}

    def steps(self):
        threads = min(2, len(os.sched_getaffinity(0)))
        return [
            ["--seed", str(self.seed), "--threads", str(threads),
             "--config", "inputs/sense.json", "--out", "run", "sense"],
            ["rerun", "run/manifest.json"],
        ]

    def after_step(self, index):
        if index == 0:
            self.before_rerun = checks.digests(self.cwd / "run")

    def check(self, stdouts):
        problems = checks.check_sense(self.cwd / "run", self.N_SHOTS)
        after = checks.digests(self.cwd / "run")
        return problems + checks.check_rerun(self.before_rerun, after, stdouts[1])


WORKLOADS = {cls.name: cls for cls in (PulseDesign, Spectroscopy, SensingRun)}
