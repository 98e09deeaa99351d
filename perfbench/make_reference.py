"""Regenerate the stored reference outputs under perfbench/reference/.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's invocations once at the reference seed and keeps every
CSV and metadata.json they write, plus the list of all written files. Only
regenerate when a change of the program's outputs is intended: every
benchmark run is checked against these files.
"""

import shutil
import sys

from check import MANIFEST
from run import CLI, REFERENCE, ROOT, Runner
from workloads import DEFAULT_SEED, WORKLOADS


def main(workloads: list) -> int:
    for workload in workloads or WORKLOADS:
        runner = Runner(workload)
        for invocation in runner.invocations:
            out = ROOT / invocation.out_dir(workload)
            shutil.rmtree(out, ignore_errors=True)
            argv = [sys.executable, "-c", CLI, *invocation.argv(workload, DEFAULT_SEED)]
            *_, code, log = runner.spawn(argv, f"{invocation.label}.log")
            if code:
                print(f"{workload}/{invocation.label} failed:\n{log}", file=sys.stderr)
                return 1
            target = REFERENCE / workload / invocation.label
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            names = sorted(path.name for path in out.iterdir())
            for name in names:
                if name.endswith((".csv", ".json")):
                    shutil.copyfile(out / name, target / name)
            (target / MANIFEST).write_text("\n".join(names) + "\n")
            print(f"{workload}/{invocation.label}: {names}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
