"""Line coverage of ``src/nvsense`` under the test suite, standard library only.

    python tests/linecov.py [pytest arguments]

runs pytest with a generated ``sitecustomize.py`` first on ``PYTHONPATH``.
It starts a ``sys.settrace`` line tracer in every Python process of the run:
pytest's own, each CLI subprocess, each thread they start, and each child
forked from them, which inherits its parent's tracer. Every process writes
the package lines it ran to a file as it ends, at ``os._exit`` too, which
skips exit handlers. The report lists, per module, the executable lines (the
line numbers of its compiled code) that no process ran, then the totals, and
the script exits with pytest's exit code. Pytest does not collect this file.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nvsense"

SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_linecov", {module!r})
linecov = importlib.util.module_from_spec(spec)
spec.loader.exec_module(linecov)
linecov.start({hits!r})
del importlib, spec, linecov
"""


def start(hits_dir: str):
    """Record each package line this process runs, in every thread, and
    write them to a new file in ``hits_dir`` when the process ends."""
    import atexit
    import threading

    prefix = f"{PACKAGE}{os.sep}"
    hits = set()

    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    def dump():
        name = f"{os.getpid()}-{os.urandom(4).hex()}.json"
        Path(hits_dir, name).write_text(json.dumps(sorted(hits)))

    exit_now = os._exit

    def exit_after_dump(code):
        dump()
        exit_now(code)

    os._exit = exit_after_dump
    atexit.register(dump)
    threading.settrace(call)
    sys.settrace(call)


def executable(path: Path) -> set:
    """The line numbers of ``path``'s compiled code, nested code included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def report(hits_dir: Path):
    ran = set()
    for dump in hits_dir.iterdir():
        ran.update(map(tuple, json.loads(dump.read_text())))
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable(path)
        unreached = sorted(n for n in lines if (str(path), n) not in ran)
        total, missed = total + len(lines), missed + len(unreached)
        if unreached:
            print(f"{path.name}: {len(unreached)} unreached: {unreached}")
    print(f"{total - missed} of {total} executable lines reached, {missed} unreached")


def main(args) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        hits_dir = Path(tmp, "hits")
        hits_dir.mkdir()
        site = SITECUSTOMIZE.format(module=str(Path(__file__).resolve()), hits=str(hits_dir))
        Path(tmp, "sitecustomize.py").write_text(site)
        path = [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run([sys.executable, "-m", "pytest", *args], cwd=ROOT, env=env)
        report(hits_dir)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
