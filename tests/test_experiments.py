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
    MultiplierOperator,
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
s_values = -2.0,0.0
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
    return ExperimentConfig(
        experiment=draw(st.sampled_from(EXPERIMENTS)),
        operator_kind=operator_kind,
        operator_exponent=-2.0
        if operator_kind == "deblur_1d"
        else draw(st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)),
        truth_kind=truth_kind,
        truth_path=draw(_paths) if truth_kind == "coefficients" else None,
        alpha0=draw(_positive_floats),
        kappa=draw(_positive_floats),
        r=draw(st.floats(min_value=0.0, allow_infinity=False)),
        noise_regularity=draw(_finite_floats),
        seeds=tuple(draw(st.lists(st.integers(0, 2**64), min_size=1, max_size=5))),
        delta_grid=tuple(
            sorted(draw(st.sets(_positive_floats, min_size=1, max_size=5)), reverse=True)
        ),
        s1_list=tuple(draw(st.lists(_finite_floats, min_size=1, max_size=5))),
        bandlimit=bandlimit,
        reference_bandlimit=reference,
        plot_points=draw(st.integers(8, 10**5)),
        probe_s_values=tuple(draw(st.lists(_finite_floats, min_size=1, max_size=5))),
        probe_bandlimits=tuple(
            sorted(draw(st.sets(st.integers(1, 4 * 10**6), min_size=1, max_size=5)))
        ),
        probe_growth_threshold=draw(_finite_floats),
        gamma_test_function_count=draw(st.integers(1, 2 * reference + 1)),
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
        operator, lattice = experiments._operator_on_lattice(config)
        truth = experiments._build_truth(config, lattice)
        noise = sample_white_noise(lattice, config.seeds[0])
        alpha = experiments._schedule(config).alpha(SIGNAL_DELTA)
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

        monkeypatch.setattr(tikhtorus.noise, "_cpu_count", lambda: 2)
        monkeypatch.setattr(tikhtorus.noise, "_box_muller", exhausted)
        text = small_config_text("noise_probe", str(tmp_path / "out"), probe_bandlimits="50000,100000")
        code = main(["noise-probe", "--config", str(write_config(tmp_path, text))])
        assert code == 4 and raised
        err = capsys.readouterr().err
        assert err.startswith("MemoryError: out of memory") and "[noise_probe] bandlimits" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_deblur_draws_each_seed_once(self, tmp_path, monkeypatch):
        # one draw per seed feeds the error sweep, the snapshot and the H^1
        # certificate alike
        original = tikhtorus.noise.sample_white_noise
        drawn = []

        def counted(lattice, seed):
            drawn.append(seed)
            return original(lattice, seed)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "tikhtorus":
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attribute, counted)
        path = CONFIG_DIR / "deblur.ini"
        code = main(["deblur", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        seeds = load_config(path).seeds
        assert len(drawn) == len(seeds)
        assert drawn == list(seeds)

    def test_deblur_evaluates_the_reference_symbol_twice(self, tmp_path, monkeypatch):
        # check_ellipticity evaluates the symbol on the reference lattice, and
        # the error sweep, the band calibration and the certificate share one
        # more evaluation
        original = MultiplierOperator.symbol_values
        mode_counts = []

        def counted(self, lattice):
            mode_counts.append(lattice.mode_count)
            return original(self, lattice)

        monkeypatch.setattr(MultiplierOperator, "symbol_values", counted)
        path = CONFIG_DIR / "deblur.ini"
        code = main(["deblur", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        reference_modes = 2 * load_config(path).reference_bandlimit + 1
        assert mode_counts.count(reference_modes) <= 2
        assert len(mode_counts) > 2  # the snapshot's plot-band solves still count

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

    def test_cli_run_does_not_load_scipy(self, tmp_path):
        # scipy backs only the dense solver; a fresh CLI process never imports it
        script = (
            "import sys, tikhtorus, tikhtorus.cli; "
            f"code = tikhtorus.cli.main(['gamma', '--config', {str(CONFIG_DIR / 'gamma.ini')!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "assert code == 0, code; "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
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
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr

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
