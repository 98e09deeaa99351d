"""Check that the CLI writes the same bytes as a committed manifest.

Runs every config in ``configs/`` and ``perfbench/configs/`` through the
CLI, once per seed offset in ``OFFSETS``, hashes every file each run writes
with SHA-256 and compares the hashes with ``tools/outputs.sha256``. Each file
is labelled by its config's path from the repository root, the offset and
its name, e.g. ``configs/gamma.ini@3/gamma.csv``: two configs may share a
basename. ``metadata.json`` records the output directory, which differs from
run to run, so it is hashed with ``parameters.output.dir`` removed. Every
run has ``OPENBLAS_NUM_THREADS=2`` in its environment, so a match also shows
that the CLI's bytes do not follow a caller's BLAS setting. Usage::

    python tools/check_outputs.py          # compare; exit 1 on any difference
    python tools/check_outputs.py --write  # regenerate the manifest
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "outputs.sha256"
CONFIGS = sorted((ROOT / "configs").glob("*.ini")) + sorted((ROOT / "perfbench" / "configs").glob("*.ini"))
OFFSETS = (0, 3)


def digest(path: Path) -> str:
    """The SHA-256 of a written file; for ``metadata.json``, of its text with
    the output directory removed. The package writes the sidecar as
    ``json.dumps(..., indent=2, sort_keys=True)``, so a sidecar that is not
    that dump of its own contents keeps its raw hash and fails the check."""
    data = path.read_bytes()
    if path.name == "metadata.json":
        text = data.decode()
        metadata = json.loads(text)
        if json.dumps(metadata, indent=2, sort_keys=True) + "\n" == text:
            del metadata["parameters"]["output"]["dir"]
            data = (json.dumps(metadata, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def config_hashes(config: Path, offset: int, work: Path) -> dict:
    """label -> hash of every file that one CLI run of ``config`` at seed
    offset ``offset`` writes, into a fresh directory under ``work``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(config)
    command = parser["experiment"]["name"].replace("_", "-")
    name = config.relative_to(ROOT).as_posix()
    out = work / f"{name.replace('/', '_')}@{offset}"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), "OPENBLAS_NUM_THREADS": "2"}
    argv = [sys.executable, "-m", "tikhtorus.cli", command, "--config", str(config), "--out", str(out)]
    run = subprocess.run([*argv, "--seed-offset", str(offset)], env=env, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{name} at offset {offset} exited {run.returncode}: {run.stderr.strip()}")
    files = sorted(path for path in out.rglob("*") if path.is_file())
    return {f"{name}@{offset}/{path.relative_to(out).as_posix()}": digest(path) for path in files}


def read_manifest(path: Path = MANIFEST) -> dict:
    """label -> hash, from ``sha256sum``-style lines."""
    entries = (line.split(None, 1) for line in path.read_text().splitlines() if line.strip())
    return {label: value for value, label in entries}


def differences(expected: dict, actual: dict) -> list:
    """One line per label that is missing, new or hashed differently."""
    lines = [f"missing: {label}" for label in sorted(expected.keys() - actual.keys())]
    lines += [f"new: {label}" for label in sorted(actual.keys() - expected.keys())]
    shared = sorted(expected.keys() & actual.keys())
    lines += [f"differs: {label}" for label in shared if expected[label] != actual[label]]
    return lines


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {MANIFEST.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    actual: dict = {}
    with tempfile.TemporaryDirectory() as work:
        for config in CONFIGS:
            for offset in OFFSETS:
                actual.update(config_hashes(config, offset, Path(work)))
    if args.write:
        MANIFEST.write_text("".join(f"{actual[label]}  {label}\n" for label in sorted(actual)))
        print(f"wrote {len(actual)} hashes to {MANIFEST.relative_to(ROOT)}")
        return 0
    problems = differences(read_manifest(), actual)
    print("\n".join(problems) or f"{len(actual)} files match {MANIFEST.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
