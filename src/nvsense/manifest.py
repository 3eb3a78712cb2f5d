"""Run manifests: enough metadata to re-run any command bit-identically.

A manifest records the exact argument vector, the seed, the tool version,
and content hashes of every input and output file. No timestamps are
stored, so two identical runs produce identical manifests.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: list  # argv of the subcommand, excluding the program name
    seed: int
    version: str
    config_path: str | None = None
    inputs: dict = field(default_factory=dict)  # path -> sha256
    outputs: dict = field(default_factory=dict)  # path -> sha256

    def add_output(self, path):
        self.outputs[str(path)] = sha256_file(path)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        d = json.loads(text)
        command = d["command"]
        if not isinstance(command, list) or not all(
            isinstance(arg, str) for arg in command
        ):
            raise ValueError(f"command must be a list of strings, not {command!r}")
        files = {key: d.get(key, {}) for key in ("inputs", "outputs")}
        for key, paths in files.items():
            if not isinstance(paths, dict) or not all(
                isinstance(digest, str) for digest in paths.values()
            ):
                raise ValueError(f"{key} must map paths to digests, not {paths!r}")
        return cls(
            command=command,
            seed=d["seed"],
            version=d["version"],
            config_path=d.get("config_path"),
            **files,
        )

    def verify_inputs(self) -> list[str]:
        """Input paths that are missing or whose content hash differs from
        the recorded one."""
        return _stale(self.inputs)

    def verify_outputs(self) -> list[str]:
        """Output paths that are missing or whose content hash differs from
        the recorded one."""
        return _stale(self.outputs)


def _stale(digests: dict) -> list[str]:
    return [
        path
        for path, digest in digests.items()
        if not Path(path).is_file() or sha256_file(path) != digest
    ]
