"""The benchmark's workloads: which `tikhtorus` CLI invocations each one runs.

Every workload is a closed loop with one client: each invocation is a fresh
process, started only after the previous one has exited. The workload seed
reaches the program only as ``--seed-offset``. Paths are relative to the
root of the checkout, which is also the working directory of every child.
"""

from __future__ import annotations

import dataclasses

DEFAULT_SEED = 0  # the seed the stored reference outputs were made with
WORK_DIR = ".perfbench_work"


@dataclasses.dataclass(frozen=True)
class Invocation:
    command: str  # CLI subcommand
    config: str  # config file, relative to the checkout root
    label: str  # output and reference directory name

    @property
    def experiment(self) -> str:
        return self.command.replace("-", "_")

    def out_dir(self, workload: str) -> str:
        return f"{WORK_DIR}/{workload}/{self.label}"

    def argv(self, workload: str, seed: int) -> list:
        return [
            self.command,
            "--config",
            self.config,
            "--out",
            self.out_dir(workload),
            "--seed-offset",
            str(seed),
        ]


WORKLOADS = {
    # field construction, Sobolev reductions and solve_split at 524,289 modes
    "deblur_sweep": (Invocation("deblur", "perfbench/configs/deblur_sweep.ini", "deblur"),),
    # noise sampling and masked partial sums at 2,097,153 modes; no solver
    "noise_probe": (
        Invocation("noise-probe", "perfbench/configs/noise_probe.ini", "noise_probe"),
    ),
    # dense normal-equation solves up to n = 4095 (BLAS on every core)
    "gamma_dense": (Invocation("gamma", "perfbench/configs/gamma_dense.ini", "gamma"),),
    # the shipped configs as they are: import, parsing and writing dominate
    "shipped_configs": tuple(
        Invocation(name.replace("_", "-"), f"configs/{name}.ini", name)
        for name in ("deblur", "gamma", "noise_probe", "rates")
    ),
}
