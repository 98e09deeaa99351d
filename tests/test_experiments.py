"""Config parsing, experiment runners, CLI contract, output determinism."""

import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tikhtorus.cli
import tikhtorus.experiments as experiments
import tikhtorus.noise
from tikhtorus import (
    ConfigError,
    FrequencyLattice,
    evaluate_on_grid,
    forward,
    hat_values,
    load_config,
    sample_white_noise,
    solve,
    truncate,
)
from tikhtorus.cli import main
from tikhtorus.config import _BYTES_PER_MODE, _BYTES_PER_PLOT_POINT, EXPERIMENTS, ExperimentConfig
from tikhtorus.experiments import SIGNAL_DELTA, run_experiment

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
# a bandlimit whose (2M+1) * 8-byte mode table takes about half of physical memory
ROOMY_BANDLIMIT = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 32


def small_config_text(experiment="deblur", out_dir="out", **overrides):
    values = {
        "deltas": "1e-2,1e-3,1e-4",
        "s1_list": "-1.5,1.0",
        "seeds": "0,1,2",
        "bandlimit": "32",
        "reference": "256",
        "probe_bandlimits": "64,128,256",
        "s_values": "-2.0,0.0",
    }
    values.update(overrides)
    return f"""
[experiment]
name = {experiment}

[operator]
kind = deblur_1d

[truth]
kind = hat

[schedule]
alpha0 = 1.0
kappa = 2.5
r = 1.0

[noise]
noise_regularity = -0.6
seeds = {values["seeds"]}

[grids]
delta_grid = {values["deltas"]}
s1_list = {values["s1_list"]}

[resolution]
bandlimit = {values["bandlimit"]}
reference_bandlimit = {values["reference"]}
plot_points = 128

[noise_probe]
s_values = {values["s_values"]}
bandlimits = {values["probe_bandlimits"]}

[gamma]
test_function_count = 3

[output]
dir = {out_dir}
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_fresh_process(script, **env):
    """Run ``script`` with ``python -c`` in a new interpreter that imports
    the package from this checkout, with ``env`` added to its environment;
    the finished process."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )


def traced_cli_peak(argv):
    """The tracemalloc peak, in bytes, of ``tikhtorus.cli.main(argv)`` run in a
    fresh process; the run must exit 0."""
    script = (
        "import tracemalloc, tikhtorus.cli; "
        "tracemalloc.start(); "
        f"code = tikhtorus.cli.main({argv!r}); "
        "assert code == 0, code; "
        "print(tracemalloc.get_traced_memory()[1])"
    )
    done = run_fresh_process(script)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1])  # after the written paths


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
_positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_paths = st.text("abcxyz0123456789_./-", min_size=1, max_size=20)


@st.composite
def valid_configs(draw):
    """An ExperimentConfig that load_config must accept, built field by field."""
    operator_kind = draw(st.sampled_from(["deblur_1d", "power_law"]))
    truth_kind = draw(st.sampled_from(["hat", "coefficients"]))
    # sizes whose runs fit in 1 GiB, so the memory check accepts them on any test machine
    bandlimit = draw(st.integers(1, 10**5))
    reference = 4 * bandlimit + draw(st.integers(0, 5 * 10**5))
    # gamma's test functions take 16 bytes per reference mode each; keep them under 1 GiB too
    test_functions = max(1, min(2 * reference + 1, 2**30 // (16 * (2 * reference + 1))))
    experiment = draw(st.sampled_from(EXPERIMENTS))
    return ExperimentConfig(
        experiment=experiment,
        operator_kind=operator_kind,
        operator_exponent=-2.0
        if operator_kind == "deblur_1d"
        else draw(st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)),
        truth_kind=truth_kind,
        truth_path=draw(_paths) if truth_kind == "coefficients" else None,
        alpha0=draw(_positive_floats),
        kappa=draw(_positive_floats),
        # gamma needs a spectral penalty
        r=draw(st.floats(min_value=0.0, exclude_min=experiment == "gamma", allow_infinity=False)),
        noise_regularity=draw(_finite_floats),
        seeds=tuple(draw(st.lists(st.integers(0, 2**64), min_size=1, max_size=5, unique=True))),
        delta_grid=tuple(
            sorted(draw(st.sets(_positive_floats, min_size=1, max_size=5)), reverse=True)
        ),
        s1_list=tuple(draw(st.lists(_finite_floats, min_size=1, max_size=5, unique=True))),
        bandlimit=bandlimit,
        reference_bandlimit=reference,
        plot_points=draw(st.integers(8, 10**5)),
        probe_s_values=tuple(draw(st.lists(_finite_floats, min_size=1, max_size=5, unique=True))),
        probe_bandlimits=tuple(
            sorted(draw(st.sets(st.integers(1, 4 * 10**6), min_size=1, max_size=5)))
        ),
        probe_growth_threshold=draw(_finite_floats),
        gamma_test_function_count=draw(st.integers(1, test_functions)),
        output_dir=draw(_paths),
    )


def _magnitudes(low, high):
    """Floats from 10^low to 10^high, spread evenly on a log scale."""
    return st.floats(low, high).map(lambda exponent: 10.0**exponent)


@st.composite
def extreme_small_configs(draw):
    """An ExperimentConfig at small sizes with extreme schedule, operator and
    grid values: alpha0 and kappa over 1e-300..1e300, r up to 500, deltas
    down to 1e-300, Sobolev orders over +-400."""
    operator_kind = draw(st.sampled_from(["deblur_1d", "power_law"]))
    bandlimit = draw(st.integers(1, 8))
    orders = st.lists(st.floats(-400.0, 400.0), min_size=1, max_size=3)
    return ExperimentConfig(
        experiment=draw(st.sampled_from(EXPERIMENTS)),
        operator_kind=operator_kind,
        operator_exponent=-2.0 if operator_kind == "deblur_1d" else -draw(_magnitudes(-3, 2.7)),
        alpha0=draw(_magnitudes(-300, 300)),
        kappa=draw(_magnitudes(-300, 300)),
        r=draw(st.one_of(st.just(1.0), st.floats(0.0, 500.0))),  # the certificate needs r = 1
        noise_regularity=draw(st.floats(-10.0, 10.0)),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=2))),
        delta_grid=tuple(
            sorted(draw(st.sets(_magnitudes(-300, 1), min_size=1, max_size=4)), reverse=True)
        ),
        s1_list=tuple(draw(orders)),
        bandlimit=bandlimit,
        reference_bandlimit=draw(st.integers(4 * bandlimit, 64)),
        plot_points=draw(st.integers(8, 64)),
        probe_s_values=tuple(draw(orders)),
        probe_bandlimits=tuple(sorted(draw(st.sets(st.integers(1, 64), min_size=1, max_size=3)))),
        gamma_test_function_count=draw(st.integers(1, 5)),
        output_dir="out",
    )


def assert_csv_numbers_finite(out_dir):
    """Every number in the run's CSV tables is finite, except the documented
    nan: no exponent is predicted for an out_of_range row of slopes.csv."""
    for table in out_dir.glob("*.csv"):
        header, *lines = table.read_text().splitlines()
        for line in lines:
            row = dict(zip(header.split(","), line.split(",")))
            for column, cell in row.items():
                try:
                    value = float(cell)
                except ValueError:  # labels and empty cells
                    continue
                documented = (table.name, column, row.get("regime")) == (
                    "slopes.csv", "predicted_exponent", "out_of_range"
                )
                assert math.isfinite(value) or (documented and math.isnan(value)), (table.name, line)


def metadata_to_ini(meta):
    """Render a metadata sidecar's parameters back to config-file text."""
    sections = dict(meta, experiment={"name": meta["experiment"]})
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if isinstance(value, list):
                value = ",".join(repr(item) for item in value)
            if value is not None:
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestConfig:
    def test_shipped_configs_parse(self):
        for name in ("deblur", "rates", "noise_probe", "gamma"):
            config = load_config(CONFIG_DIR / f"{name}.ini")
            assert config.experiment == name

    def test_load_and_overrides(self, tmp_path):
        path = write_config(tmp_path, small_config_text(out_dir=str(tmp_path / "a")))
        config = load_config(path)
        assert config.seeds == (0, 1, 2)
        shifted = config.with_overrides(output_dir=str(tmp_path / "b"), seed_offset=100)
        assert shifted.seeds == (100, 101, 102)
        assert shifted.output_dir == str(tmp_path / "b")

    def test_metadata_covers_all_sections(self, tmp_path):
        path = write_config(tmp_path, small_config_text())
        meta = load_config(path).to_metadata()
        for section in (
            "experiment", "operator", "truth", "schedule", "noise",
            "grids", "resolution", "noise_probe", "gamma", "output",
        ):
            assert section in meta

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            (("name = deblur", "name = nonsense"), "experiment name"),
            (("kind = deblur_1d", "kind = mystery"), "operator kind"),
            (("delta_grid = 1e-2,1e-3,1e-4", "delta_grid = 1e-3,1e-2"), "decreasing"),
            (("delta_grid = 1e-2,1e-3,1e-4", "delta_grid = -1e-2,-2e-2"), "positive"),
            (("reference_bandlimit = 256", "reference_bandlimit = 64"), "4 * bandlimit"),
            (("alpha0 = 1.0", "alpha0 = -1.0"), "alpha0"),
            (("seeds = 0,1,2", "seeds = "), "seeds"),
            (("alpha0 = 1.0", "alpha0 = nan"), r"\[schedule\] alpha0"),
            (("kappa = 2.5", "kappa = inf"), r"\[schedule\] kappa"),
            (("r = 1.0", "r = nan"), r"\[schedule\] r\b"),
            (("noise_regularity = -0.6", "noise_regularity = nan"), r"\[noise\] noise_regularity"),
            (("seeds = 0,1,2", "seeds = -1"), r"\[noise\] seeds"),
            (
                ("delta_grid = 1e-2,1e-3,1e-4", "delta_grid = 1e-2,nan,1e-4"),
                r"\[grids\] delta_grid",
            ),
            (("s1_list = -1.5,1.0", "s1_list = -1.5,nan"), r"\[grids\] s1_list"),
            (("s_values = -2.0,0.0", "s_values = -inf,0.0"), r"\[noise_probe\] s_values"),
            (
                ("bandlimits = 64,128,256", "bandlimits = 64,128,256\ngrowth_threshold = nan"),
                r"\[noise_probe\] growth_threshold",
            ),
            (("kind = deblur_1d", "kind = power_law\nexponent = nan"), r"\[operator\] exponent"),
            # infeasible sizes are rejected from the size arithmetic, before any allocation
            (
                ("reference_bandlimit = 256", "reference_bandlimit = 1000000000000"),
                r"\[resolution\] reference_bandlimit [^,]+ physical memory",
            ),
            (
                ("bandlimits = 64,128,256", "bandlimits = 64,128,1000000000000"),
                r"\[noise_probe\] bandlimits [^,]+ physical memory",
            ),
            (("bandlimits = 64,128,256", "bandlimits = -5,128,256"), r"\[noise_probe\] bandlimits"),
            (
                ("test_function_count = 3", "test_function_count = 100000"),
                r"\[gamma\] test_function_count",
            ),
            (("dir = out", "dir = 100%"), r"\[output\] dir"),
            (("s_values = -2.0,0.0", "s_values = "), r"\[noise_probe\] s_values must be nonempty"),
            (("bandlimits = 64,128,256", "bandlimits = "), r"\[noise_probe\] bandlimits must be nonempty"),
            # a size whose 8-byte mode table fits but whose run's arrays do not
            (
                ("reference_bandlimit = 256", f"reference_bandlimit = {ROOMY_BANDLIMIT}"),
                r"\[resolution\] reference_bandlimit [^,]+ deblur run [^,]+ physical memory",
            ),
            (
                ("bandlimits = 64,128,256", f"bandlimits = 64,128,{ROOMY_BANDLIMIT}"),
                r"\[noise_probe\] bandlimits [^,]+ noise_probe run [^,]+ physical memory",
            ),
            (
                ("plot_points = 128", "plot_points = 10000000000000"),
                r"\[resolution\] plot_points [^,]+ deblur run [^,]+ physical memory",
            ),
            (("s1_list = -1.5,1.0", "s1_list = -1.5,-1.5"), r"\[grids\] s1_list must not repeat"),
            (
                ("s_values = -2.0,0.0", "s_values = -2.0,-2.0"),
                r"\[noise_probe\] s_values must not repeat",
            ),
        ],
    )
    def test_named_field_errors(self, tmp_path, mutation, needle):
        text = small_config_text().replace(*mutation)
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=needle.replace("*", r"\*")):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        text = small_config_text() + "\n[schedule]\nturbo = yes\n"
        # configparser rejects the duplicate section first; write a fresh one
        text = small_config_text().replace("alpha0 = 1.0", "alpha0 = 1.0\nturbo = yes")
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="turbo"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, small_config_text() + "\n[extras]\nx = 1\n")
        with pytest.raises(ConfigError, match="extras"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_missing_required_key(self, tmp_path):
        text = small_config_text().replace("dir = out", "")
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=r"\[output\] dir"):
            load_config(path)

    @settings(max_examples=50, deadline=None)
    @given(config=valid_configs())
    def test_metadata_round_trips_through_ini(self, tmp_path_factory, config):
        path = tmp_path_factory.mktemp("roundtrip") / "exp.ini"
        path.write_text(metadata_to_ini(config.to_metadata()))
        assert load_config(path) == config

    def test_readme_table_lists_every_key(self):
        readme = (ROOT / "README.md").read_text()
        table = readme.split("## Config schema", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `\[(\w+)\]` +\| `(\w+)` ", table, flags=re.MULTILINE)
        declared = [field.metadata["ini"] for field in dataclasses.fields(ExperimentConfig)]
        assert sorted(rows) == sorted(declared)

    def test_readme_memory_figures_match_the_checks(self):
        readme = (ROOT / "README.md").read_text()
        table = readme.split("## Config schema", 1)[1].split("\n## ", 1)[0]
        plot_figure = re.search(r"`plot_points \* (\d+)` bytes", table).group(1)
        assert int(plot_figure) == _BYTES_PER_PLOT_POINT
        per_mode = {}
        for part in re.search(r"bytes per mode \(([^)]*)\)", table).group(1).split(", "):
            *experiments_named, figure = part.replace(" and ", " ").split()
            per_mode.update(dict.fromkeys(experiments_named, int(figure)))
        assert per_mode == _BYTES_PER_MODE
        probe_figure = re.search(r"`\(2M\+1\) \* (\d+)` bytes", table).group(1)
        assert int(probe_figure) == _BYTES_PER_MODE["noise_probe"]

    def test_readme_quickstart_runs(self):
        # the block runs as printed and prints what its comment says
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Library quickstart", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace: dict = {}
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(compile(code, "README.md", "exec"), namespace)
        comment = re.search(r"^print\(.*\) +# (.+)$", code, flags=re.MULTILINE).group(1)
        regime, exponent = printed.getvalue().split()
        assert f"{regime} {float(exponent):.4f}" == comment == "case_ii 0.5417"
        assert math.isfinite(namespace["err"]) and namespace["split"].reconstruction.hermitian


EXPECTED_FILES = {
    "deblur": {
        "errors.csv", "signal.csv", "divergence.csv",
        "errors.svg", "signal.svg", "metadata.json",
    },
    "rates": {"errors.csv", "slopes.csv", "errors.svg", "metadata.json"},
    "noise_probe": {"probe.csv", "probe.svg", "metadata.json"},
    "gamma": {"gamma.csv", "gamma.svg", "metadata.json"},
}

CSV_HEADERS = {
    ("deblur", "errors.csv"): "s1,delta,seed,raw_error,normalized_error",
    ("deblur", "divergence.csv"): "delta,seed,band_size,lower_bound,h1_norm_sq",
    ("rates", "slopes.csv"): "s1,regime,predicted_exponent,fitted_slope,residual",
    ("noise_probe", "probe.csv"): "s,bandlimit,seed_or_expected,partial_energy,growth_ratio,classification",
    ("gamma", "gamma.csv"): "n,k,alpha,test_function_id,pairing_gap,functional_gap,c_k",
}


class TestRunners:
    @pytest.mark.parametrize("experiment", sorted(EXPECTED_FILES))
    def test_outputs_and_headers(self, tmp_path, experiment):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config_text(experiment, str(out)))
        written = run_experiment(load_config(path))
        assert set(written) == EXPECTED_FILES[experiment]
        for name, file_path in written.items():
            assert file_path.exists()
            assert file_path.stat().st_size > 0
        for (exp, name), header in CSV_HEADERS.items():
            if exp == experiment:
                first_line = (out / name).read_text().splitlines()[0]
                assert first_line == header

    def test_metadata_is_json_with_parameters(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config_text("rates", str(out)))
        run_experiment(load_config(path))
        payload = json.loads((out / "metadata.json").read_text())
        assert payload["parameters"]["schedule"]["kappa"] == 2.5
        assert "derived" in payload and "alpha_by_delta" in payload["derived"]
        assert "package_version" in payload

    def test_runs_are_byte_identical(self, tmp_path):
        out = tmp_path / "a"
        path = write_config(tmp_path, small_config_text("deblur", str(out)))
        first = run_experiment(load_config(path))
        snapshots = {name: file_path.read_bytes() for name, file_path in first.items()}
        second = run_experiment(load_config(path))
        for name in first:
            assert second[name].read_bytes() == snapshots[name]

    def test_svg_is_self_contained(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config_text("deblur", str(out)))
        run_experiment(load_config(path))
        for svg in out.glob("*.svg"):
            text = svg.read_text()
            assert text.startswith("<svg")
            assert "href" not in text  # no external references
            assert "<image" not in text

    def test_gamma_sizes_reach_reference(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config_text("gamma", str(out)))
        config = load_config(path)
        run_experiment(config)
        rows = (out / "gamma.csv").read_text().splitlines()[1:]
        ns = sorted({int(row.split(",")[0]) for row in rows})
        assert ns[-1] == 2 * config.reference_bandlimit + 1

    def test_divergence_rows_respect_lower_bound(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config_text("deblur", str(out)))
        run_experiment(load_config(path))
        rows = (out / "divergence.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            _, _, band_size, lower_bound, h1_norm_sq = row.split(",")
            assert int(band_size) > 0
            assert float(h1_norm_sq) >= float(lower_bound) > 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["derived"]["divergence"]["emitted"] is True
        assert meta["derived"]["divergence"]["certificate_kappa"] == 2.0

    def test_divergence_skipped_without_h1_penalty(self, tmp_path):
        out = tmp_path / "out"
        text = small_config_text("deblur", str(out)).replace("r = 1.0", "r = 2.0")
        run_experiment(load_config(write_config(tmp_path, text)))
        assert not (out / "divergence.csv").exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["derived"]["divergence"]["emitted"] is False

    def test_rates_slopes_beat_predictions(self, tmp_path):
        # contract of the rates run: every in-range s1 has
        # fitted_slope >= predicted_exponent - 0.15 for the noise-free sweep
        out = tmp_path / "out"
        text = small_config_text(
            "rates", str(out), deltas="1e-1,1e-2,1e-3,1e-4", s1_list="-3.0,-1.5",
            bandlimit="512", reference="4096",
        )
        run_experiment(load_config(write_config(tmp_path, text)))
        rows = (out / "slopes.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            _, regime, predicted, fitted, _ = row.split(",")
            if regime in ("case_i", "case_ii"):
                assert float(fitted) >= float(predicted) - 0.15

    @pytest.mark.parametrize(
        "operator_kind,truth_kind",
        [("deblur_1d", "hat"), ("power_law\nexponent = -3.0", "coefficients")],
        ids=["deblur_1d-hat", "power_law-coefficients"],
    )
    def test_snapshot_equals_the_full_lattice_composition(
        self, tmp_path, operator_kind, truth_kind
    ):
        # the snapshot measures and solves on the plot band; its rows are bit
        # for bit those of the full-lattice forward -> solve -> truncate ->
        # evaluate_on_grid (t = 3 takes the generic pow path of the symbol)
        signal = tmp_path / "signal.csv"
        signal.write_text("0,0.5,0\n1,0.25,-0.25\n3,-0.125,0.0625\n40,1e-3,2e-3\n")
        text = (
            small_config_text()
            .replace("kind = deblur_1d", f"kind = {operator_kind}")
            .replace("kind = hat", f"kind = {truth_kind}\npath = {signal}")
        )
        config = load_config(write_config(tmp_path, text))
        operator, lattice, truth, schedule = experiments._problem(config)
        noise = sample_white_noise(lattice, config.seeds[0])
        alpha = schedule.alpha(SIGNAL_DELTA)
        rows, _, band = experiments._snapshot(config, operator, truth, noise, alpha, config.r)

        data = forward(operator, truth, SIGNAL_DELTA, noise).data
        reconstruction = solve(operator, data, alpha, config.r)
        x_grid = np.arange(config.plot_points) / config.plot_points
        truth_values, data_values, reconstruction_values = (
            evaluate_on_grid(truncate(field, band), config.plot_points)
            for field in (truth, data, reconstruction)
        )
        if truth_kind == "hat":
            truth_values = hat_values(x_grid)
        expected = np.column_stack([x_grid, truth_values, data_values, reconstruction_values])
        assert band == 32
        assert np.array_equal(np.array(rows).view(np.uint64), expected.view(np.uint64))

    def test_coefficient_truth_kind(self, tmp_path):
        signal = tmp_path / "signal.csv"
        signal.write_text("0,1.0,0\n1,0.25,-0.25\n")
        text = small_config_text("rates", str(tmp_path / "out")).replace(
            "kind = hat", f"kind = coefficients\npath = {signal}"
        )
        path = write_config(tmp_path, text)
        run_experiment(load_config(path))
        assert (tmp_path / "out" / "slopes.csv").exists()


class TestCli:
    def test_success_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config_text("rates", str(out)))
        code = main(["rates", "--config", str(path)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(out / "slopes.csv") in printed

    def test_out_override_and_seed_offset(self, tmp_path):
        path = write_config(tmp_path, small_config_text("noise_probe", str(tmp_path / "ignored")))
        out = tmp_path / "probe_out"
        code = main(["noise-probe", "--config", str(path), "--out", str(out), "--seed-offset", "50"])
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["parameters"]["noise"]["seeds"] == [50, 51, 52]

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config_text().replace("name = deblur", "name = bogus"))
        code = main(["deblur", "--config", str(path)])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_subcommand_config_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config_text("rates", str(tmp_path / "out")))
        code = main(["deblur", "--config", str(path)])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seeds,offset,needle",
        [("-1", "0", "[noise] seeds"), ("0,1", "-1", "--seed-offset")],
    )
    def test_negative_seed_exit_code(self, tmp_path, capsys, seeds, offset, needle):
        text = small_config_text(out_dir=str(tmp_path / "out"), seeds=seeds)
        path = write_config(tmp_path, text)
        code = main(["deblur", "--config", str(path), "--seed-offset", offset])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError") and needle in err
        assert not (tmp_path / "out").exists()

    def test_repeated_seed_exit_code(self, tmp_path, capsys):
        # a repeated seed would count its draw twice in the sweep medians but
        # once in the certificate's per-seed ratios
        text = small_config_text(out_dir=str(tmp_path / "out"), seeds="0,0,1")
        code = main(["deblur", "--config", str(write_config(tmp_path, text))])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError") and "[noise] seeds must not repeat a seed" in err
        assert not (tmp_path / "out").exists()

    def test_gamma_without_a_spectral_penalty_exit_code(self, tmp_path, capsys):
        # the gamma sweep reads each size off the reference minimizer, which
        # needs the H^r penalty with r > 0; the config check names file and key
        text = small_config_text("gamma", str(tmp_path / "out")).replace("r = 1.0", "r = 0")
        path = write_config(tmp_path, text)
        code = main(["gamma", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigError: {path}: [schedule] r must be positive")
        assert not (tmp_path / "out").exists()

    def test_gamma_test_functions_count_toward_the_memory_check(
        self, tmp_path, capsys, monkeypatch
    ):
        # (2M+1) * 616 bytes fit, but 2M+1 test functions of 16 bytes per mode
        # take about 64 times physical memory; the run must never start
        def allocating(config):
            raise AssertionError("the run started")

        monkeypatch.setattr(tikhtorus.cli, "run_experiment", allocating)
        side = math.isqrt(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
        text = small_config_text("gamma", str(tmp_path / "out"), reference=str(side)).replace(
            "test_function_count = 3", f"test_function_count = {2 * side + 1}"
        )
        code = main(["gamma", "--config", str(write_config(tmp_path, text))])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError") and "[gamma] test_function_count needs" in err
        assert "physical memory" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content,needle",
        [
            (b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR", "signal.csv: not a UTF-8 text file"),
            (b"0,0.3,0\n1,nan,0\n", "signal.csv:2: re and im must be finite"),
            (b"0,0.3,0\n1,0,inf\n", "signal.csv:2: re and im must be finite"),
        ],
        ids=["binary", "nan", "inf"],
    )
    def test_bad_coefficient_file_exit_code(self, tmp_path, capsys, content, needle):
        signal = tmp_path / "signal.csv"
        signal.write_bytes(content)
        text = small_config_text("rates", str(tmp_path / "out")).replace(
            "kind = hat", f"kind = coefficients\npath = {signal}"
        )
        code = main(["rates", "--config", str(write_config(tmp_path, text))])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigError") and needle in err

    def test_truth_whose_norm_overflows_names_its_keys(self, tmp_path, capsys):
        # finite coefficients whose H^r norm overflows: no numpy warning, and
        # the message names the keys that set it
        signal = tmp_path / "signal.csv"
        signal.write_text("1,1e200,0\n2,1e200,0\n")
        text = small_config_text("deblur", str(tmp_path / "out")).replace(
            "kind = hat", f"kind = coefficients\npath = {signal}"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["deblur", "--config", str(write_config(tmp_path, text))])
        err = capsys.readouterr().err
        assert code == 4 and caught == [] and "Warning" not in err
        assert err.startswith("ParameterError: ") and "[truth] path" in err and "[schedule] r = 1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            # alpha = alpha0 * delta^kappa underflows to 0: every noise-free error is 0
            (("kappa = 2.5", "kappa = 1e6"), "s1 = -1.5, delta = 0.01 is 0"),
            (("alpha0 = 1.0", "alpha0 = 1e-320"), "s1 = -1.5, delta = 0.01 is 0"),
            # the weights (1+|l|^2)^400 overflow on purpose
            (("s1_list = -1.5,1.0", "s1_list = 400"), "s1 = 400, delta = 0.01"),
        ],
        ids=["kappa", "alpha0", "s1"],
    )
    def test_degenerate_sweep_exit_code(self, tmp_path, capsys, mutation, needle):
        text = small_config_text("rates", str(tmp_path / "out")).replace(*mutation)
        code = main(["rates", "--config", str(write_config(tmp_path, text))])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ParameterError") and needle in err

    @pytest.mark.parametrize("experiment", ["deblur", "gamma"])
    @pytest.mark.parametrize(
        "mutation", [("kappa = 2.5", "kappa = 1e6"), ("alpha0 = 1.0", "alpha0 = 1e-320")],
        ids=["kappa", "alpha0"],
    )
    def test_alpha_underflow_exit_code(self, tmp_path, capsys, experiment, mutation):
        text = small_config_text(experiment, str(tmp_path / "out")).replace(*mutation)
        code = main([experiment, "--config", str(write_config(tmp_path, text))])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ParameterError") and "underflows to 0" in err
        assert "[schedule] alpha0" in err and "kappa" in err and "delta = " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["deblur", "rates", "gamma"])
    def test_penalty_overflow_exit_code(self, tmp_path, capsys, experiment):
        # (1+|l|^2)^400 overflows on the reference lattice
        text = small_config_text(experiment, str(tmp_path / "out")).replace("r = 1.0", "r = 400")
        code = main([experiment, "--config", str(write_config(tmp_path, text))])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ParameterError") and "r = 400" in err

    @pytest.mark.parametrize("experiment", ["deblur", "rates", "gamma"])
    def test_penalty_product_overflow_is_benign(self, tmp_path, experiment):
        # (1+|l|^2)^60 is finite on the reference lattice but alpha times it
        # overflows: z = inf makes those filter factors 0, their double value
        out = tmp_path / "out"
        text = small_config_text(experiment, str(out))
        text = text.replace("r = 1.0", "r = 60").replace("alpha0 = 1.0", "alpha0 = 1e30")
        assert main([experiment, "--config", str(write_config(tmp_path, text))]) == 0
        assert_csv_numbers_finite(out)

    _ALPHA_OVERFLOW = (("kappa = 2.5", "kappa = 1e6"), ("delta_grid = 1e-2", "delta_grid = 2.0"))

    @pytest.mark.parametrize(
        "experiment,mutations,needle",
        [
            # z = |a|^2 + alpha (1+|l|^2) squares past the double range at every
            # mode of the H^1 certificate, so every ||w_delta||_H^1 reads 0
            ("deblur", [("alpha0 = 1.0", "alpha0 = 1e300")], "[schedule] alpha0"),
            # alpha = alpha0 * delta^kappa overflows at delta = 2
            ("rates", _ALPHA_OVERFLOW, "[schedule] alpha0"),
            ("gamma", _ALPHA_OVERFLOW, "[schedule] alpha0"),
            # alpha and |a(l)|^2 both underflow to 0, so the filter is 0/0
            (
                "rates",
                [
                    ("kind = deblur_1d", "kind = power_law\nexponent = -100"),
                    ("alpha0 = 1.0", "alpha0 = 1e-320"),
                ],
                "[schedule] alpha0",
            ),
            # the H^1 certificate squares deltas to 0 or to a subnormal
            ("deblur", [("1e-2,1e-3,1e-4", "1e-200,1e-250,1e-300")], "[grids] delta_grid"),
            ("deblur", [("1e-2,1e-3,1e-4", "1e-2,1e-3,1.5e-158")], "[grids] delta_grid"),
        ],
        ids=["certificate", "rates-alpha", "gamma-alpha", "filter", "delta", "subnormal"],
    )
    def test_schedule_extremes_exit_code(self, tmp_path, capsys, experiment, mutations, needle):
        out = tmp_path / "out"
        text = small_config_text(experiment, str(out))
        for mutation in mutations:
            text = text.replace(*mutation)
        code = main([experiment, "--config", str(write_config(tmp_path, text))])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ParameterError") and needle in err, err
        assert not out.exists()

    _SCHEDULE_KEYS = ["[grids] delta_grid", "[schedule] alpha0 = ", ", kappa = "]

    @pytest.mark.parametrize(
        "experiment,values,error,needles",
        [
            # m = a u + delta eps overflows while it is formed
            ("gamma", {"delta_grid": "1e308", "kappa": "1e-3"}, "ParameterError", ["[grids] delta_grid"]),
            # the data are finite but c_k and the squared sums overflow
            (
                "gamma", {"delta_grid": "3.95e184", "kappa": "1.99e-33"},
                "ParameterError", ["[grids] delta_grid"],
            ),
            # the minimizer conj(a) m / z overflows at the top modes
            (
                "gamma", {"delta_grid": "1e305", "kappa": "0.5", "alpha0": "1e-300"},
                "ParameterError", ["[grids] delta_grid"],
            ),
            # the sweep error overflows at the largest delta
            (
                "deblur", {"delta_grid": "1e200,1e199,1e198", "kappa": "1e-3"},
                "ParameterError", ["[grids] delta_grid"],
            ),
            # alpha is too small to move the noise-free reconstruction off the
            # truth, so the curve has nothing to be normalized by
            ("rates", {"alpha0": "1e-300", "delta_grid": "1e2,1e1,1e0"}, "ParameterError", _SCHEDULE_KEYS),
            # the squared errors underflow at the smallest delta, whose median
            # then has no logarithm for the slope fit
            ("deblur", {"delta_grid": "1e2,1e1,1e-160", "s1_list": "-250"}, "DomainError", _SCHEDULE_KEYS),
        ],
        ids=["gamma-data", "gamma-sums", "gamma-minimizer", "deblur-error", "rates-median", "deblur-fit"],
    )
    def test_extreme_shipped_configs_name_their_keys(
        self, tmp_path, capsys, experiment, values, error, needles
    ):
        # the shipped config with a few values changed: no warning, no
        # output, and a message naming the keys
        text = (CONFIG_DIR / f"{experiment}.ini").read_text()
        for key, value in values.items():
            text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([experiment, "--config", str(write_config(tmp_path, text)), "--out", str(out)])
        assert code == 4 and caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"{error}: ") and all(needle in err for needle in needles), err
        assert not out.exists()

    def test_band_calibration_failure_names_its_keys(self, tmp_path, capsys):
        # |a(l)|^2 underflows to 0 above the lowest modes, so no pinch band
        # reaches delta = 7e-18 however far it widens
        out = tmp_path / "out"
        text = small_config_text(
            "deblur", str(out), bandlimit="4", reference="16", deltas="1.0,7e-18"
        )
        text = text.replace("kind = deblur_1d", "kind = power_law\nexponent = -184")
        text = text.replace("kappa = 2.5", "kappa = 4e-145")
        code = main(["deblur", "--config", str(write_config(tmp_path, text))])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("CalibrationError"), err
        assert "[grids] delta_grid" in err and "[operator] exponent = -184" in err
        assert not out.exists()

    def test_zero_rate_error_names_its_keys(self, tmp_path, capsys):
        # alpha underflows to 0 at the two small deltas, where the noise-free
        # error is then exactly 0 and has no logarithm
        out = tmp_path / "out"
        text = small_config_text("rates", str(out), deltas="1e-2,1e-200,1e-300")
        code = main(["rates", "--config", str(write_config(tmp_path, text))])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("DomainError"), err
        assert "[grids] delta_grid" in err and "[schedule] alpha0 = 1, kappa = 2.5" in err
        assert not out.exists()

    def test_probe_energy_overflow_exit_code(self, tmp_path, capsys):
        # (1+|l|^2)^400 overflows on the probe lattice
        text = small_config_text("noise_probe", str(tmp_path / "out")).replace(
            "s_values = -2.0,0.0", "s_values = -2.0,400"
        )
        code = main(["noise-probe", "--config", str(write_config(tmp_path, text))])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ParameterError") and "s = 400, bandlimit = 64" in err
        assert not (tmp_path / "out").exists()

    _VANISHING_SYMBOL = (
        ("kind = deblur_1d", "kind = power_law\nexponent = -400"),
        ("[operator] exponent = -400", "[resolution] reference_bandlimit = 256"),
    )

    @pytest.mark.parametrize(
        "experiment,mutation,needles",
        [
            (
                "rates",
                ("noise_regularity = -0.6", "noise_regularity = -10"),
                ("[noise] noise_regularity = -10", "[operator] exponent", "[schedule] r"),
            ),
            ("rates", *_VANISHING_SYMBOL),
            ("deblur", *_VANISHING_SYMBOL),
            ("gamma", *_VANISHING_SYMBOL),
        ],
        ids=["rates-smoothing", "rates-symbol", "deblur-symbol", "gamma-symbol"],
    )
    def test_runner_errors_name_their_keys(self, tmp_path, capsys, experiment, mutation, needles):
        text = small_config_text(experiment, str(tmp_path / "out")).replace(*mutation)
        code = main([experiment, "--config", str(write_config(tmp_path, text))])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ParameterError")
        assert all(needle in err for needle in needles), err
        assert not (tmp_path / "out").exists()

    def test_underflowed_band_ratios_exit_cleanly(self, tmp_path):
        # |a(l)|^2 = (1+l^2)^-80 underflows to 0 on the upper part of the
        # reference lattice; the H^1 band calibration must not take log(0)
        out = tmp_path / "out"
        text = small_config_text("deblur", str(out)).replace(
            "kind = deblur_1d", "kind = power_law\nexponent = -80"
        )
        code = main(["deblur", "--config", str(write_config(tmp_path, text))])
        assert code in (0, 4)
        if code == 0:
            for table in out.glob("*.csv"):
                for line in table.read_text().splitlines()[1:]:
                    for cell in line.split(","):
                        assert math.isfinite(float(cell)), (table.name, line)

    @pytest.mark.parametrize(
        "experiment,key",
        [
            ("noise_probe", "[noise_probe] bandlimits"),
            ("rates", "[resolution] reference_bandlimit"),
            ("gamma", "[resolution] reference_bandlimit"),
        ],
        ids=["noise_probe", "rates", "gamma"],
    )
    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch, experiment, key):
        def exhausted(config):
            raise MemoryError()

        monkeypatch.setattr(tikhtorus.cli, "run_experiment", exhausted)
        text = small_config_text(experiment, str(tmp_path / "out"))
        command = experiment.replace("_", "-")
        code = main([command, "--config", str(write_config(tmp_path, text))])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("MemoryError: out of memory") and key in err
        assert "Traceback" not in err

    def test_memory_error_in_a_draw_worker_exit_code(self, tmp_path, capsys, monkeypatch):
        # the probe's 100,000-pair draw runs on worker threads; a MemoryError
        # raised in one reaches the CLI on the calling thread
        original = tikhtorus.noise._box_muller
        raised = []

        def exhausted(uniforms):
            if threading.current_thread() is not threading.main_thread():
                raised.append(uniforms.size)
                raise MemoryError()
            return original(uniforms)

        monkeypatch.setattr(tikhtorus.spectral, "_cpu_count", lambda: 2)
        monkeypatch.setattr(tikhtorus.noise, "_box_muller", exhausted)
        text = small_config_text("noise_probe", str(tmp_path / "out"), probe_bandlimits="50000,100000")
        code = main(["noise-probe", "--config", str(write_config(tmp_path, text))])
        assert code == 4 and raised
        err = capsys.readouterr().err
        assert err.startswith("MemoryError: out of memory") and "[noise_probe] bandlimits" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_deblur_draws_each_seed_once(self, tmp_path, monkeypatch):
        # the snapshot draws the first seed on its plot band; the error sweep
        # and the H^1 certificate share one streamed pass that draws each
        # seed's canonical modes of each mirror group of leaves once: the
        # leaves below the zero mode read them mirrored
        originals = {"field": tikhtorus.noise.sample_white_noise, "span": tikhtorus.noise._draw_span}
        drawn = {"field": [], "span": []}

        def counting(kind):
            def counted(lattice, seed, *span):
                drawn[kind].append((lattice, seed, *span))
                return originals[kind](lattice, seed, *span)

            return counted

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "tikhtorus":
                for attribute, value in list(vars(module).items()):
                    for kind, original in originals.items():
                        if value is original:
                            monkeypatch.setattr(module, attribute, counting(kind))
        path = CONFIG_DIR / "deblur.ini"
        code = main(["deblur", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        config = load_config(path)
        plot_lattice = FrequencyLattice(1, experiments._plot_band(config))
        assert drawn["field"] == [(plot_lattice, config.seeds[0])]

        reference = FrequencyLattice(1, config.reference_bandlimit)
        leaves = []
        tikhtorus.spectral._pairwise_tree(0, reference.mode_count, leaves)
        groups = tikhtorus.spectral._mirror_groups(reference.mode_count, leaves)
        assert len(leaves) > len(groups)
        canonical = [(span.start, span.stop) for span, _ in groups]
        assert canonical[0][0] == reference.zero_index and canonical[-1][1] == reference.mode_count
        spans = [(seed, start, stop) for lattice, seed, start, stop in drawn["span"]]
        assert all(lattice == reference for lattice, *_ in drawn["span"])
        for seed in config.seeds:
            assert all(spans.count((seed, start, stop)) == 1 for start, stop in canonical)
            # no leaf below the zero mode is drawn on its own
            assert all((seed, start, stop) not in spans for start, stop in leaves if stop <= reference.zero_index)

    def test_deblur_counts_its_reference_symbol_evaluations(self, tmp_path, monkeypatch):
        # no symbol table is built on the whole reference lattice: each walk
        # of a set-up stage evaluates it on mirror pieces that cover every
        # reference mode once. The set-up walks twice: one walk checks the
        # operator and gathers every fact the sweep and the certificate read
        # (its ellipticity, symmetry, zeros and the band's centre), and the
        # certificate walks once more for the band's members. The snapshot
        # evaluates its plot band twice (forward map and solve), and the pass
        # once per mirror group of leaves, on its canonical modes: the symbol
        # is Hermitian, so the pieces cover each +-l pair exactly once
        build = experiments._build_operator
        stage = [None]
        tables = []

        def counted_operator(config):
            operator = build(config)

            def symbol(modes):
                tables.append((stage[0], modes.copy()))
                return operator.symbol(modes)

            return dataclasses.replace(operator, symbol=symbol)

        def staged(name, function):
            def run(*args, **kwargs):
                stage[0] = name
                return function(*args, **kwargs)

            return run

        monkeypatch.setattr(experiments, "_build_operator", counted_operator)
        stages = ("_problem", "SweepTables", "DivergenceTables", "_snapshot", "_sweep_pass")
        for name in stages:
            monkeypatch.setattr(experiments, name, staged(name, getattr(experiments, name)))
        path = CONFIG_DIR / "deblur.ini"
        code = main(["deblur", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        config = load_config(path)
        reference = FrequencyLattice(1, config.reference_bandlimit).modes()
        plot_band = FrequencyLattice(1, experiments._plot_band(config)).modes()
        by_stage = {name: [modes for where, modes in tables if where == name] for name in stages}
        assert sum(map(len, by_stage.values())) == len(tables)
        assert not any(np.array_equal(modes, reference) for _, modes in tables)
        assert by_stage["SweepTables"] == []
        for name, walks in [("_problem", 1), ("DivergenceTables", 1)]:
            assert len(by_stage[name]) >= 2 * walks  # several pieces per walk
            covered = np.sort(np.concatenate(by_stage[name]), axis=0)
            assert np.array_equal(covered, np.repeat(reference, walks, axis=0)), name
        assert len(by_stage["_snapshot"]) == 2
        assert all(np.array_equal(modes, plot_band) for modes in by_stage["_snapshot"])
        pieces = by_stage["_sweep_pass"]
        pairs = np.arange(config.reference_bandlimit + 1)[:, None]  # |l| of each +-l pair
        assert len(pieces) >= 1
        assert np.array_equal(np.sort(np.abs(np.concatenate(pieces)), axis=0), pairs)

    def test_shipped_configs_run_under_the_benchmark_tracer(self, tmp_path, capsys):
        # the benchmark's traced mode rebinds library names and reads argument
        # names (truth, meas, lattice, seed, delta_grid, seeds): a rename in
        # the library breaks it, so run the four configs with it installed
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
        )
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            codes = {
                name: main(
                    [
                        name.replace("_", "-"),
                        "--config", str(CONFIG_DIR / f"{name}.ini"),
                        "--out", str(tmp_path / name),
                    ]
                )
                for name in EXPERIMENTS
            }
        finally:
            tracer.uninstall()
        assert codes == dict.fromkeys(EXPERIMENTS, 0), capsys.readouterr().err
        spans = tracer.report()["spans"]
        assert spans["tikhonov.forward"]["calls"] > 0
        assert spans["noise.sample_white_noise"]["calls"] > 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(config=extreme_small_configs())
    def test_extreme_values_keep_the_exit_code_contract(self, tmp_path_factory, config):
        # every run exits 0, 2 or 4 with no exception or warning escaping, and a
        # run that exits 0 writes only finite numbers
        root = tmp_path_factory.mktemp("extreme")
        path = root / "exp.ini"
        path.write_text(metadata_to_ini(config.to_metadata()))
        out = root / "out"
        argv = [config.experiment.replace("_", "-"), "--config", str(path), "--out", str(out)]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 4), err.getvalue()
        if code:
            assert not out.exists(), err.getvalue()
        else:
            assert_csv_numbers_finite(out)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        config=extreme_small_configs(),
        deltas=st.sets(_magnitudes(-300, 308), min_size=1, max_size=4),
    )
    def test_extreme_deltas_keep_the_exit_code_contract(self, tmp_path_factory, config, deltas):
        # deltas up to 1e308 make data, sums and medians leave the double
        # range: every run still exits 0, 2 or 4 with no warning, an exit 0
        # writes only finite numbers, and an exit 4 names the key to change;
        # which message a deblur run gives rests on its check order (snapshot,
        # then per seed the sweep's errors in (delta, s1) order, then its
        # certificate rows)
        config = dataclasses.replace(config, delta_grid=tuple(sorted(deltas, reverse=True)))
        root = tmp_path_factory.mktemp("extreme-deltas")
        path = root / "exp.ini"
        path.write_text(metadata_to_ini(config.to_metadata()))
        out = root / "out"
        argv = [config.experiment.replace("_", "-"), "--config", str(path), "--out", str(out)]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 4), err.getvalue()
        if code == 0:
            assert_csv_numbers_finite(out)
        if code == 4:
            assert re.search(r"\[[a-z_]+\] [a-z_0-9]+", err.getvalue()), err.getvalue()

    def test_deblur_peak_does_not_grow_with_the_grids(self, tmp_path):
        # the streamed pass holds a fixed block of seeds' draws per piece, so
        # 40 seeds and 12 deltas peak within 5 % of 2 seeds and 4 deltas
        peaks = []
        for seeds, deltas in [(2, 4), (40, 12)]:
            overrides = {
                "reference": "131072",
                "seeds": ",".join(map(str, range(seeds))),
                "deltas": ",".join(f"{10.0 ** (-2 - 3 * k / (deltas - 1)):.6g}" for k in range(deltas)),
            }
            config = write_config(tmp_path, small_config_text("deblur", str(tmp_path / "out"), **overrides))
            script = (
                "import tracemalloc, tikhtorus.cli; "
                "tracemalloc.start(); "
                f"code = tikhtorus.cli.main(['deblur', '--config', {str(config)!r}]); "
                "assert code == 0, code; "
                "print(tracemalloc.get_traced_memory()[1])"
            )
            done = run_fresh_process(script)
            assert done.returncode == 0, done.stderr
            peaks.append(int(done.stdout.split()[-1]))
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_probe_peak_does_not_grow_with_the_lattice(self):
        # in d = 1 the probe forms its tables in a window of offsets per
        # worker, so a top lattice of 2^19 peaks within 5 % of one of 2^17
        # (two workers in both runs; whole half tables grew fourfold)
        peaks = []
        for top in (2**17, 2**19):
            script = (
                "import tracemalloc, tikhtorus.spectral as spectral, tikhtorus.noise as noise; "
                "spectral._cpu_count = lambda: 2; "
                "tracemalloc.start(); "
                f"noise.regularity_probe([-2.0, -0.6, -0.4, 0.0], [{top // 4}, {top // 2}, {top}], range(6)); "
                "print(tracemalloc.get_traced_memory()[1])"
            )
            done = run_fresh_process(script)
            assert done.returncode == 0, done.stderr
            peaks.append(int(done.stdout.split()[-1]))
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_deblur_peak_does_not_grow_with_the_lattice(self, tmp_path):
        # a deblur run holds no lattice-sized table: its truth is formed a
        # span at a time, and its pass a mirror group at a time, so a
        # reference lattice of 2^19 peaks within 5 % of one of 2^17 (two
        # workers in both runs; a whole truth table grew fourfold)
        peaks = []
        for reference in (2**17, 2**19):
            text = small_config_text("deblur", str(tmp_path / "out"), reference=str(reference))
            config = write_config(tmp_path, text)
            script = (
                "import tracemalloc, tikhtorus.cli, tikhtorus.spectral as spectral; "
                "spectral._cpu_count = lambda: 2; "
                "tracemalloc.start(); "
                f"code = tikhtorus.cli.main(['deblur', '--config', {str(config)!r}]); "
                "assert code == 0, code; "
                "print(tracemalloc.get_traced_memory()[1])"
            )
            done = run_fresh_process(script)
            assert done.returncode == 0, done.stderr
            peaks.append(int(done.stdout.split()[-1]))
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_deblur_set_up_peaks_below_the_pass(self, tmp_path):
        # the set-up forms no lattice-sized table, the truth included: at
        # 262,145 modes no stage ahead of the pass reaches the pass's
        # tracemalloc peak (the whole-table checks peaked about 60 % above it)
        config = write_config(tmp_path, small_config_text("deblur", str(tmp_path / "out"), reference="131072"))
        script = (
            "import json, tracemalloc, tikhtorus.cli, tikhtorus.experiments as experiments\n"
            "peaks = {}\n"
            "def staged(name, function):\n"
            "    def run(*args, **kwargs):\n"
            "        tracemalloc.reset_peak()\n"
            "        try:\n"
            "            return function(*args, **kwargs)\n"
            "        finally:\n"
            "            peaks[name] = tracemalloc.get_traced_memory()[1]\n"
            "    return run\n"
            "for name in ('_problem', 'SweepTables', 'DivergenceTables', '_sweep_pass'):\n"
            "    setattr(experiments, name, staged(name, getattr(experiments, name)))\n"
            "tracemalloc.start()\n"
            f"assert tikhtorus.cli.main(['deblur', '--config', {str(config)!r}]) == 0\n"
            "print(json.dumps(peaks))\n"
        )
        done = run_fresh_process(script)
        assert done.returncode == 0, done.stderr
        peaks = json.loads(done.stdout.splitlines()[-1])
        assert len(peaks) == 4
        assert max(peaks[name] for name in ("_problem", "SweepTables", "DivergenceTables")) <= peaks["_sweep_pass"], peaks

    def test_cli_run_does_not_load_scipy(self, tmp_path):
        # scipy backs only the dense solver; a fresh CLI process never imports it
        script = (
            "import sys, tikhtorus, tikhtorus.cli; "
            f"code = tikhtorus.cli.main(['gamma', '--config', {str(CONFIG_DIR / 'gamma.ini')!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "assert code == 0, code; "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
        )
        done = run_fresh_process(script)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "gamma.csv").exists()

    def test_cli_import_does_not_load_concurrent_futures_or_logging(self):
        # the draw's workers are plain threads: the CLI's import stays as light
        # as before they existed
        script = (
            "import sys, tikhtorus.cli; "
            "loaded = [m for m in ('concurrent.futures', 'logging') if m in sys.modules]; "
            "assert not loaded, loaded"
        )
        done = run_fresh_process(script)
        assert done.returncode == 0, done.stderr

    def test_package_import_does_not_load_numpy(self):
        done = run_fresh_process("import sys, tikhtorus; assert 'numpy' not in sys.modules")
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cli_import_pins_openblas_to_one_thread(self):
        # a caller's setting does not reach a CLI process: OpenBLAS starts no
        # worker thread
        script = (
            "import os, tikhtorus.cli; "
            "threads = len(os.listdir('/proc/self/task')); "
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '1', os.environ['OPENBLAS_NUM_THREADS']; "
            "assert threads == 1, threads"
        )
        done = run_fresh_process(script, OPENBLAS_NUM_THREADS="4")
        assert done.returncode == 0, done.stderr

    def test_cli_import_after_numpy_leaves_the_environment_alone(self):
        script = (
            "import os, numpy, tikhtorus; "
            "before = dict(os.environ); "
            "import tikhtorus.cli; "
            "assert dict(os.environ) == before; "
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '4'"
        )
        done = run_fresh_process(script, OPENBLAS_NUM_THREADS="4")
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs for 2 BLAS threads")
    def test_gamma_bytes_do_not_depend_on_the_callers_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot product of more than 10,000 elements across
        # its threads; c_k at reference_bandlimit 12000 is one of 24,001
        text = (CONFIG_DIR / "gamma.ini").read_text()
        assert "reference_bandlimit = 512" in text
        config = write_config(tmp_path, text.replace("reference_bandlimit = 512", "reference_bandlimit = 12000"))
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            script = (
                "import sys, tikhtorus.cli; "
                f"sys.exit(tikhtorus.cli.main(['gamma', '--config', {str(config)!r}, '--out', {str(out)!r}]))"
            )
            done = run_fresh_process(script, OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            written.append((out / "gamma.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "experiment,overrides,top_bandlimit",
        [
            ("deblur", {"reference": "131072"}, 131072),
            ("noise_probe", {"probe_bandlimits": "65536,131072,262144"}, 262144),
            ("gamma", {"reference": "131072"}, 131072),
            ("rates", {"reference": "131072"}, 131072),
        ],
    )
    def test_peak_bytes_per_mode_stay_within_the_memory_check(
        self, tmp_path, experiment, overrides, top_bandlimit
    ):
        # config._BYTES_PER_MODE decides the exit-2 memory check: a run's
        # tracemalloc peak over its top lattice's mode count stays below it
        config = write_config(tmp_path, small_config_text(experiment, str(tmp_path / "out"), **overrides))
        argv = [experiment.replace("_", "-"), "--config", str(config)]
        peak = traced_cli_peak(argv)
        assert peak / (2 * top_bandlimit + 1) <= _BYTES_PER_MODE[experiment]

    def test_probe_keeps_its_even_tables_on_half_the_lattice(self, tmp_path):
        # the even tables hold at most the 131,073 positions from the zero
        # mode up (4 weight tables and a |c|^2 table take 20 B per
        # top-lattice mode there): this run's traced peak measured 60.6 B
        # per mode while the tables held the whole lattice, 36.6 B while they
        # held half of it, and 42.2 B on 2 CPUs with a window of offsets per
        # worker, whose size does not hang on the lattice's
        text = small_config_text(
            "noise_probe",
            str(tmp_path / "out"),
            probe_bandlimits="32768,65536,131072",
            s_values="-2.0,-0.6,-0.4,0.0",
            seeds="0,1,2,3,4,5",
        )
        argv = ["noise-probe", "--config", str(write_config(tmp_path, text))]
        peak = traced_cli_peak(argv)
        assert peak / (2 * 131072 + 1) <= 48

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["deblur", "--config", str(tmp_path / "absent.ini")])
        assert code == 2

    def test_unwritable_output_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        path = write_config(tmp_path, small_config_text("rates", str(blocker / "out")))
        code = main(["rates", "--config", str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "Error" in err


# every name the package bound when its __init__ imported each submodule
EAGER_NAMES = """
    BiasBound CalibrationError ConfigError DimensionError DiscreteProblem DivergenceReport
    DomainError Ellipticity ExperimentConfig FrequencyLattice InvalidFieldError Measurement
    MultiplierOperator NotRealValuedError NumericalError ParameterError QuadraticScheduleRate
    RateExponents RegularizationSchedule SlopeFit SpectralField SweepResult TikhonovSplit
    TikhtorusError TruncationRangeError apply_multiplier assemble bias_bound_check
    check_ellipticity config coords_to_field data_shifted_functional deblur_operator discrete
    error_sweep errors evaluate_on_grid expected_sobolev_energy experiments field_from_grid
    field_to_coords fit_loglog_slope forward functional gamma_sweep h1_divergence
    hat_coefficients hat_values load_coefficient_file load_config low_frequency_test_functions
    noise power_law_operator predicted_exponent quadratic_schedule_exponent rates
    regularity_probe run_deblur run_experiment run_gamma run_noise_probe run_rates
    sample_white_noise signals single_mode_field sobolev_norm sobolev_weights solve
    solve_discrete solve_split spectral stationarity_defect svgplot tikhonov truncate zero_field
""".split()


class TestPackageNamespace:
    @pytest.mark.parametrize("name", EAGER_NAMES)
    def test_every_eager_name_is_its_submodules_object(self, name):
        value = getattr(tikhtorus, name)
        if isinstance(value, type(tikhtorus)):
            assert value is sys.modules[f"tikhtorus.{name}"]
        else:
            assert value.__module__.startswith("tikhtorus.")
            assert value is getattr(sys.modules[value.__module__], name)
        assert name in dir(tikhtorus)

    def test_from_import_serves_every_eager_name_in_a_fresh_process(self):
        script = (
            "import sys, tikhtorus\n"
            f"for name in {EAGER_NAMES!r}:\n"
            "    scope = {}\n"
            "    exec(f'from tikhtorus import {name} as value', scope)\n"
            "    assert scope['value'] is getattr(tikhtorus, name), name\n"
            "assert isinstance(tikhtorus.noise, type(sys)), tikhtorus.noise\n"
        )
        done = run_fresh_process(script)
        assert done.returncode == 0, done.stderr

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            tikhtorus.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from tikhtorus import no_such_name", {})

    def test_lookups_do_not_bind_into_the_package(self):
        before = dict(vars(tikhtorus))
        assert tikhtorus.solve is tikhtorus.tikhonov.solve
        assert tikhtorus.FrequencyLattice is tikhtorus.spectral.FrequencyLattice
        assert vars(tikhtorus) == before
