"""Traced CLI steps: spans around the public functions of each nvsense layer.

Run as a script, this executes one CLI step in the current process:

    PYTHONPATH=src python3 clibench/tracer.py SPANS.json -- ARGS...

It times ``import nvsense.cli``, wraps the layers' public functions by
replacing module attributes (in every nvsense module that holds them, so
names that ``cli`` and ``synth`` import are wrapped too), sets ``sys.argv``
to the step's argv and calls ``nvsense.cli.main(ARGS,
standalone_mode=False)``. Spans are kept in memory and written to
SPANS.json when the step ends. ``per_layer`` turns the spans of a whole
workload into the benchmark's per-layer metrics.
"""

import functools
import json
import os
import sys
import threading
import time

# (module, attribute) wrapped in a span named "<module>.<attribute>"
TARGETS = (
    ("grape", "optimize"),
    ("grape", "fidelity"),
    ("grape", "grape_gradient"),
    ("synth", "make_coherence_family"),
    ("synth", "make_depth_suite"),
    ("sequences", "coherence_from_spectrum"),
    ("noisespec", "reconstruct_spectrum"),
    ("noisespec", "spectrum_iterate"),
    ("noisespec", "fit_lorentzian"),
    ("depth", "fit_depth"),
    ("depth", "proton_signal_coherence"),
    ("protocol", "run_experiment"),
    ("protocol", "simulate_fringe"),
    ("protocol", "ExperimentRun.to_csv"),
    ("sensitivity", "fit_fringe"),
    ("sensitivity", "sensitivity_from_timeseries"),
    ("manifest", "sha256_file"),
    ("manifest", "RunManifest.verify_outputs"),
)

# CLI steps, one span each; "gen_noise" is the "noise" command of the "gen" group
CLI_STEPS = ("grape", "gen_noise", "noise", "gen_depth", "depth", "sense", "rerun")


# counts taken from a call's arguments and result, added to its span
COUNTERS = {
    "grape.optimize": ("iterations", lambda args, result: result.n_iterations),
    "noisespec.spectrum_iterate": ("iterations", lambda args, result: result[1]["iterations"]),
    "protocol.run_experiment": ("shots", lambda args, result: len(result.photons)),
    "manifest.sha256_file": ("bytes", lambda args, result: os.path.getsize(args[0])),
}


class Tracer:
    """Spans (name, start, end, parent index, counts) kept in memory."""

    def __init__(self):
        self.spans = []
        self.output_bytes = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name) -> int:
        stack = self._stack()
        span = {"name": name, "start": None, "end": None, "counts": {}}
        span["parent"] = stack[-1] if stack else None
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span["start"] = time.perf_counter()
        return index

    def close(self, index):
        self.spans[index]["end"] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                key, extract = counter
                self.spans[index]["counts"][key] = extract(args, result)
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target and every CLI step; ``uninstall`` restores them."""
        import nvsense.cli as cli

        modules = [m for n, m in list(sys.modules.items()) if n == "nvsense" or n.startswith("nvsense.")]
        for mod_name, attr in TARGETS:
            module = sys.modules[f"nvsense.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self.wrap(name, vars(cls)[meth]))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, key, wrapped)
        self._count_outputs(sys.modules["nvsense.manifest"].RunManifest)
        groups = [("", cli.main)]
        while groups:
            prefix, group = groups.pop()
            for cmd_name, cmd in group.commands.items():
                if hasattr(cmd, "commands"):
                    groups.append((f"{cmd_name}_", cmd))
                else:
                    self._replace(cmd, "callback", self.wrap(f"cli.{prefix}{cmd_name}", cmd.callback))

    def _count_outputs(self, manifest_cls):
        """cli.output_bytes: the size of every output a command records."""
        original = vars(manifest_cls)["add_output"]

        @functools.wraps(original)
        def add_output(manifest, path):
            self.output_bytes += os.path.getsize(path)
            return original(manifest, path)

        self._replace(manifest_cls, "add_output", add_output)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def run_step(spans_path, argv) -> int:
    """Run one CLI step traced; write its spans; return its exit code."""
    tracer = Tracer()
    index = tracer.open("cli.import")
    import click
    import nvsense.cli as cli

    tracer.close(index)
    tracer.install()
    sys.argv = ["nvsense", *argv]
    code = 0
    try:
        cli.main(argv, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(
                {"spans": tracer.spans, "output_bytes": tracer.output_bytes}, fh
            )
    return code


# ------------------------------------------------------------------ aggregation

SPAN_NAMES = tuple(f"{m}.{a}" for m, a in TARGETS) + tuple(f"cli.{s}" for s in CLI_STEPS)


def per_layer(steps) -> dict:
    """Per-layer figures of one traced round.

    ``steps`` holds the span files' contents, one per CLI step. For every
    span name: ``calls``, total seconds ``s`` and ``self_s``, the total less
    the part its child spans cover. A span nested in one of the same name
    is not counted twice. Counts from COUNTERS are summed;
    ``protocol.run_experiment.shots_per_s`` is shots over its total time.
    """
    out = {}
    for name in SPAN_NAMES:
        out.update({f"{name}.calls": 0, f"{name}.s": 0.0, f"{name}.self_s": 0.0})
    for name, (key, _) in COUNTERS.items():
        out[f"{name}.{key}"] = 0
    out["cli.import_s"] = 0.0
    out["cli.output_bytes"] = 0
    for step in steps:
        spans = step["spans"]
        out["cli.output_bytes"] += step["output_bytes"]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for i, span in enumerate(spans):
            name, duration = span["name"], span["end"] - span["start"]
            if name == "cli.import":
                out["cli.import_s"] += duration
                continue
            if name not in SPAN_NAMES:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration - child_time[i]
            parent = span["parent"]
            while parent is not None and spans[parent]["name"] != name:
                parent = spans[parent]["parent"]
            if parent is None:
                out[f"{name}.s"] += duration
            for key, value in span["counts"].items():
                out[f"{name}.{key}"] += value
    shots, busy = out.pop("protocol.run_experiment.shots"), out["protocol.run_experiment.s"]
    out["protocol.run_experiment.shots_per_s"] = shots / busy if busy > 0 else 0.0
    return out


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py SPANS.json -- ARGS...")
    sys.exit(run_step(sys.argv[1], sys.argv[3:]))
