"""Config parsing, experiment runners, CLI contract, output determinism."""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tikhtorus import ConfigError, load_config
from tikhtorus.cli import main
from tikhtorus.config import EXPERIMENTS, ExperimentConfig
from tikhtorus.experiments import run_experiment

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


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
    bandlimit = draw(st.integers(1, 10**6))
    reference = 4 * bandlimit + draw(st.integers(0, 10**6))
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
            sorted(draw(st.sets(st.integers(1, 10**7), min_size=1, max_size=5)))
        ),
        probe_growth_threshold=draw(_finite_floats),
        gamma_test_function_count=draw(st.integers(1, 2 * reference + 1)),
        output_dir=draw(_paths),
    )


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
            pytest.param(
                ("s1_list = -1.5,1.0", "s1_list = 400"),
                "s1 = 400, delta = 0.01",
                marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
            ),
        ],
        ids=["kappa", "alpha0", "s1"],
    )
    def test_degenerate_sweep_exit_code(self, tmp_path, capsys, mutation, needle):
        text = small_config_text("rates", str(tmp_path / "out")).replace(*mutation)
        code = main(["rates", "--config", str(write_config(tmp_path, text))])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ParameterError") and needle in err

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
