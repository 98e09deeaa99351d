"""Print what each stage of one CLI run costs.

Runs one config through the CLI in this process, which should be a fresh
one, and prints one JSON line per call of a stage of
``tikhtorus.experiments``: its wall time, the process's CPU time (every
thread's), its minor page faults (``ru_minflt``) and the process's peak RSS
when it returns (``ru_maxrss``, in KiB). The stages are the experiment
runner and the names of ``STAGES`` that ``experiments`` binds; a stage
called inside another is printed before it, and its costs are part of the
outer stage's too. A last line gives the same for the whole run. The
CLI's own output (the written paths) goes to stderr. Usage::

    PYTHONPATH=src python tools/stage_costs.py CONFIG [--out DIR]

Without ``--out`` the outputs go to a temporary directory, removed after
the run. Fault and RSS figures mean most in a fresh process: a second run
in the same process finds the heap warm.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import json
import resource
import sys
import tempfile
import time

# the set-up and pass stages of a deblur run, as the tier-1 tests name them;
# names that experiments does not bind are skipped
STAGES = ("_problem", "check_ellipticity", "SweepTables", "DivergenceTables", "_snapshot", "_sweep_pass")


def _costs() -> tuple:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter(), time.process_time(), usage.ru_minflt


def _report(name: str, before: tuple, stream) -> None:
    wall, cpu, faults = (after - start for after, start in zip(_costs(), before))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"stage": name, "wall_s": wall, "cpu_s": cpu, "minflt": faults, "maxrss_kib": peak}
    print(json.dumps(record), file=stream, flush=True)


def _staged(name: str, function, stream):
    @functools.wraps(function)
    def run(*args, **kwargs):
        before = _costs()
        try:
            return function(*args, **kwargs)
        finally:
            _report(name, before, stream)

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--out", help="output directory (default: a temporary one)")
    args = parser.parse_args(argv)
    before = _costs()
    import tikhtorus.cli  # sets the CLI's BLAS threads before numpy loads
    import tikhtorus.experiments as experiments

    experiment = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    experiment.read(args.config)
    name = experiment["experiment"]["name"]
    for stage in (f"run_{name}", *STAGES):
        if hasattr(experiments, stage):
            setattr(experiments, stage, _staged(stage, getattr(experiments, stage), sys.stdout))
    experiments._RUNNERS[name] = experiments.__dict__[f"run_{name}"]
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(sys.stderr):
        command = [name.replace("_", "-"), "--config", args.config, "--out", args.out or scratch]
        code = tikhtorus.cli.main(command)
    _report("total", before, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
