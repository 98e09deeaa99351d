"""tikhtorus benchmark: run a workload through the CLI and report its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, one table

NAME is one of the workloads in ``workloads.py``. Every invocation is a
fresh ``tikhtorus`` process run from the checkout's ``src/``. A run first
executes the workload once at the reference seed and checks every output
against ``perfbench/reference/``; then it measures for S seconds at seed N,
checking every output again. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see README.md). The last
line of standard output is the result as one JSON object. Scratch files and
a result file with the run record go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import check_outputs
from tracer import MAX_COUNTERS
from workloads import DEFAULT_SEED, WORK_DIR, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
SETUP_ROUNDS = 3
CHILD_TIMEOUT_S = 120
# what the `tikhtorus` console script runs
CLI = "import sys; from tikhtorus.cli import main; sys.exit(main())"
# the CLI's work before its first library computation: import and config parsing
SETUP_PROBE = (
    "import sys, tikhtorus.cli; tikhtorus.cli.load_config(sys.argv[1]); "
    "print(tikhtorus.__file__)"
)
LIBRARY_PROBE = (
    "import json, numpy, scipy; "
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
    "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__, "
    "'blas': blas.get('openblas configuration') or blas.get('name')}))"
)
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def _fields(span: str, *fields: str) -> list:
    return [f"{span}.{field}" for field in fields]


PER_LAYER = (
    "tikhtorus.import_s",
    "discrete.import_s",
    *_fields("config.load_config", "calls", "self_s"),
    *_fields("signals.hat_coefficients", "calls", "self_s", "modes"),
    *_fields("spectral.SpectralField", "calls", "self_s", "bytes_computed"),
    *_fields("spectral.SpectralField.arith", "calls", "self_s"),
    *_fields("spectral.sobolev_norm", "calls", "self_s", "modes"),
    *_fields("spectral.sobolev_weights", "calls", "self_s"),
    *_fields("spectral.MultiplierOperator.symbol_values", "calls", "self_s"),
    *_fields("spectral.apply_multiplier", "calls", "self_s"),
    "spectral.check_ellipticity.self_s",
    *_fields("spectral.truncate", "calls", "self_s"),
    *_fields("spectral.evaluate_on_grid", "calls", "self_s"),
    *_fields("noise.sample_white_noise", "calls", "self_s", "modes", "variates", "distinct_ratio"),
    "noise.regularity_probe.self_s",
    *_fields("tikhonov.forward", "calls", "self_s", "modes"),
    *_fields("tikhonov.solve_split", "calls", "self_s", "modes"),
    *_fields("tikhonov.solve", "calls", "self_s"),
    *_fields("rates.error_sweep", "calls", "self_s", "solves"),
    "rates.h1_divergence.self_s",
    "rates.calibrate_band.self_s",
    "rates.fit_loglog_slope.calls",
    *_fields("discrete.assemble", "calls", "self_s"),
    *_fields("discrete.solve_discrete", "calls", "self_s", "n_max", "flops_computed"),
    "discrete.gamma_sweep.self_s",
    "discrete.field_to_coords.self_s",
    "discrete.coords_to_field.self_s",
    "experiments.run_deblur.self_s",
    "experiments.run_rates.self_s",
    "experiments.run_noise_probe.self_s",
    "experiments.run_gamma.self_s",
    "experiments.files_written",
    "experiments.bytes_written",
    *_fields("svgplot.line_plot", "calls", "self_s"),
    "trace.overhead_s",
)
UNITS = {
    "calls": "count",
    "self_s": "s",
    "import_s": "s",
    "overhead_s": "s",
    "modes": "count",
    "variates": "count",
    "solves": "count",
    "n_max": "count",
    "files_written": "count",
    "bytes_written": "B",
    "bytes_computed": "B",
    "flops_computed": "flop",
    "distinct_ratio": "ratio",
}
IMPORTS = {"tikhtorus": "tikhtorus.import_s", "tikhtorus.discrete": "discrete.import_s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def unit_of(metric: str) -> str:
    return END_TO_END.get(metric) or UNITS[metric.rsplit(".", 1)[1]]


def _digest(out_dir: Path) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    } if out_dir.is_dir() else {}


def _import_times(log: str) -> dict:
    """Cumulative seconds per package from ``-X importtime`` lines."""
    times = {}
    for line in log.splitlines():
        if line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                times[parts[2].strip()] = int(parts[1]) / 1e6
    return times


class Runner:
    """Runs a workload's invocations and keeps its failure accounting."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.invocations = WORKLOADS[workload]
        self.work = ROOT / WORK_DIR / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH")]
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._digests: dict = {}

    def spawn(self, argv: list, log_name: str) -> tuple:
        """Run one child to its end; (wall s, CPU s, peak RSS MiB, exit code, log)."""
        log = self.work / log_name
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=out
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        text = log.read_text(errors="replace")
        return wall, cpu, usage.ru_maxrss / 1024, proc.returncode, text

    def setup_round(self) -> float:
        total = 0.0
        for invocation in self.invocations:
            argv = [sys.executable, "-c", SETUP_PROBE, invocation.config]
            wall, _, _, code, log = self.spawn(argv, f"{invocation.label}.setup.log")
            loaded = Path(log.strip().splitlines()[-1] if log.strip() else "")
            if code or not loaded.resolve().is_relative_to(ROOT / "src"):
                raise BenchError(f"set-up probe for {invocation.config} failed: {log[-2000:]}")
            total += wall
        return total

    def iteration(self, seed: int, traced: bool = False) -> dict:
        """One pass over the workload's invocations; sums and maxima over them."""
        sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "layers": {}}
        layers = sample["layers"]
        for invocation in self.invocations:
            out = ROOT / invocation.out_dir(self.workload)
            shutil.rmtree(out, ignore_errors=True)
            trace_path = self.work / f"{invocation.label}.trace.json"
            if traced:
                launcher = str(HERE / "traced_cli.py")
                launch = [sys.executable, "-X", "importtime", launcher, str(trace_path)]
            else:
                launch = [sys.executable, "-c", CLI]
            self.attempted += 1
            wall, cpu, rss, code, log = self.spawn(
                launch + invocation.argv(self.workload, seed), f"{invocation.label}.log"
            )
            sample["wall_s"] += wall
            sample["cpu_s"] += cpu
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], rss)
            if code:
                problems = [f"exit code {code}: {log[-2000:]}"]
            else:
                problems = check_outputs(
                    out,
                    REFERENCE / self.workload / invocation.label,
                    invocation.experiment,
                    seed - DEFAULT_SEED,
                )
                digest = _digest(out)
                if digest != self._digests.setdefault((seed, invocation.label), digest):
                    problems.append("outputs differ from the first run at this seed")
            if problems:
                self.failed += 1
                self.problems += [f"{invocation.label} seed {seed}: {p}" for p in problems]
            if traced and not code:
                _add_trace(layers, json.loads(trace_path.read_text()), log, out)
        if traced:
            calls = layers.get("noise.sample_white_noise.calls", 0)
            distinct = layers.pop("noise.sample_white_noise.distinct", 0)
            layers["noise.sample_white_noise.distinct_ratio"] = distinct / calls if calls else 0.0
        return sample


def _add_trace(layers: dict, report: dict, log: str, out: Path) -> None:
    """Fold one traced invocation into the iteration's per-layer totals."""
    for span, stats in report["spans"].items():
        for field, value in stats.items():
            key = f"{span}.{field}"
            previous = layers.get(key, 0)
            layers[key] = max(previous, value) if field in MAX_COUNTERS else previous + value
    layers["noise.sample_white_noise.distinct"] = (
        layers.get("noise.sample_white_noise.distinct", 0) + report["distinct_draws"]
    )
    imports = _import_times(log)
    for package, metric in IMPORTS.items():
        layers[metric] = layers.get(metric, 0.0) + imports.get(package, 0.0)
    files = [path for path in out.iterdir() if path.is_file()]
    layers["experiments.files_written"] = layers.get("experiments.files_written", 0) + len(files)
    layers["experiments.bytes_written"] = layers.get("experiments.bytes_written", 0) + sum(
        path.stat().st_size for path in files
    )


def _summary(values: list) -> dict:
    summary = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        summary["q1"], _, summary["q3"] = statistics.quantiles(values, n=4)
    return summary


def _run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "blas_thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def _measure(start: float, seconds: int, step) -> list:
    """Call ``step`` at least once, and again while the next call is expected
    to end within ``seconds`` of ``start``; returns the results."""
    results, durations = [], []
    while not results or time.perf_counter() - start + statistics.median(durations) <= seconds:
        begin = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - begin)
    return results


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """Measure one workload; returns (result, run record, per-metric summaries).

    The first untraced pass runs at the reference seed and is checked
    against the stored reference in full; every other pass runs at ``seed``.
    """
    start = time.perf_counter()
    record = _run_record(workload, seed, seconds, trace)
    runner = Runner(workload)
    summaries: dict = {}

    def pass_seed(index: int) -> int:
        return DEFAULT_SEED if index == 0 else seed

    if trace:
        pairs = _measure(
            start,
            seconds,
            lambda i: (runner.iteration(pass_seed(i)), runner.iteration(seed, traced=True)),
        )
        plain, traced = zip(*pairs)
        for metric in PER_LAYER[:-1]:  # all but trace.overhead_s
            values = [sample["layers"].get(metric, 0) for sample in traced]
            if unit_of(metric) == "s":
                summaries[metric] = _summary(values)
            else:
                if len(set(values)) > 1:
                    runner.problems.append(f"{metric} differs between traced runs: {values}")
                summaries[metric] = {"median": values[0], "n": len(values)}
        walls = [statistics.median(sample["wall_s"] for sample in kind) for kind in (traced, plain)]
        summaries["trace.overhead_s"] = {"median": walls[0] - walls[1], "n": len(pairs)}
    else:
        summaries["setup_s"] = _summary([runner.setup_round() for _ in range(SETUP_ROUNDS)])
        samples = _measure(start, seconds, lambda i: runner.iteration(pass_seed(i)))
        for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
            summaries[metric] = _summary([sample[metric] for sample in samples])
    library = subprocess.run(
        [sys.executable, "-c", LIBRARY_PROBE], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    record.update(json.loads(library.stdout) if library.returncode == 0 else {"libraries": None})
    record["loadavg_end"] = list(os.getloadavg())
    record["failed_fraction"] = runner.failed / runner.attempted
    record["problems"] = runner.problems[:50]
    names = PER_LAYER if trace else tuple(END_TO_END)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": summaries[name]["median"], "unit": unit_of(name)} for name in names
        },
    }
    results = ROOT / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stored = {"record": record, "result": result, "summaries": summaries}
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(stored, indent=1))
    return result, record, summaries


def _print_table(workload: str, result: dict, record: dict, summaries: dict) -> None:
    counts = " ".join(f"{key}={result[key]}" for key in ("correct", "attempted", "failed"))
    print(f"# {workload}: {counts}")
    for name, metric in result["metrics"].items():
        summary = summaries[name]
        spread = f"  q1 {summary['q1']:.6g}  q3 {summary['q3']:.6g}" if "q1" in summary else ""
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']:6s} n={summary['n']}{spread}")
    print(f"  {'failed_fraction':48s} {record['failed_fraction']:14.6g} ratio")
    for problem in record["problems"][:10]:
        print(f"  problem: {problem}")


def _preflight(workloads: list) -> None:
    needed = [ROOT / "src" / "tikhtorus" / "__init__.py"]
    for workload in workloads:
        for invocation in WORKLOADS[workload]:
            needed += [ROOT / invocation.config, REFERENCE / workload / invocation.label]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.exists()]
    if missing:
        raise BenchError(f"not a tikhtorus checkout with its benchmark; missing {missing}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        _preflight(workloads)
        results = {}
        for workload in workloads:
            result, record, summaries = run_workload(workload, args.seed, args.seconds, args.trace)
            _print_table(workload, result, record, summaries)
            print(json.dumps({"run_record": record}))
            results[workload] = result
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
