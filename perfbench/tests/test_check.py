"""The output check passes reordered sums and fails wrong answers."""

import csv
import json
import shutil

import pytest

from check import MANIFEST, check_outputs
from run import REFERENCE
from workloads import WORKLOADS

CASES = [
    (workload, invocation)
    for workload, invocations in WORKLOADS.items()
    for invocation in invocations
]


def _copy_reference(ref_dir, out_dir):
    """An output directory holding exactly the reference outputs."""
    out_dir.mkdir()
    for name in (ref_dir / MANIFEST).read_text().split():
        source = ref_dir / name
        if source.exists():
            shutil.copyfile(source, out_dir / name)
        else:
            (out_dir / name).write_text("<svg/>\n")
    return out_dir


def _is_float_text(text):
    try:
        int(text)
    except ValueError:
        try:
            float(text)
        except ValueError:
            return False
        return True
    return False


def _edit_csv(path, edit):
    """Rewrite every cell of a CSV as edit(column, row number, cell)."""
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    edited = [header] + [
        [edit(header[i], number, cell) for i, cell in enumerate(row)]
        for number, row in enumerate(rows[1:], start=1)
    ]
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(edited)


def _scale_floats(node, factor):
    if isinstance(node, dict):
        return {key: _scale_floats(value, factor) for key, value in node.items()}
    if isinstance(node, list):
        return [_scale_floats(value, factor) for value in node]
    return node * factor if isinstance(node, float) else node


@pytest.mark.parametrize(("workload", "invocation"), CASES, ids=lambda case: getattr(case, "label", case))
def test_reference_passes_with_reordered_sums(tmp_path, workload, invocation):
    ref_dir = REFERENCE / workload / invocation.label
    out = _copy_reference(ref_dir, tmp_path / "out")
    assert check_outputs(out, ref_dir, invocation.experiment, 0) == []
    # a reordered summation moves results by about 1e-12 relative
    for path in out.glob("*.csv"):
        _edit_csv(path, lambda _, __, cell: repr(float(cell) * (1 + 1e-12)) if _is_float_text(cell) else cell)
    metadata = out / "metadata.json"
    metadata.write_text(json.dumps(_scale_floats(json.loads(metadata.read_text()), 1 + 1e-12)))
    assert check_outputs(out, ref_dir, invocation.experiment, 0) == []


@pytest.mark.parametrize(
    ("file", "column", "factor"),
    [
        ("errors.csv", "raw_error", 1 + 1e-6),
        ("errors.csv", "normalized_error", 1 - 1e-6),
        ("divergence.csv", "h1_norm_sq", 1 + 1e-6),
        ("signal.csv", "reconstruction", 1 + 1e-6),
    ],
)
def test_wrong_answer_fails(tmp_path, file, column, factor):
    ref_dir = REFERENCE / "deblur_sweep" / "deblur"
    out = _copy_reference(ref_dir, tmp_path / "out")
    _edit_csv(
        out / file,
        lambda name, number, cell: repr(float(cell) * factor) if name == column and number == 1 else cell,
    )
    problems = check_outputs(out, ref_dir, "deblur", 0)
    assert len(problems) == 1 and f"row 1 {column}" in problems[0]


def test_wrong_gamma_gap_and_metadata_fail(tmp_path):
    ref_dir = REFERENCE / "gamma_dense" / "gamma"
    out = _copy_reference(ref_dir, tmp_path / "out")
    _edit_csv(out / "gamma.csv", lambda name, _, cell: "1e-13" if name == "pairing_gap" else cell)
    metadata = json.loads((out / "metadata.json").read_text())
    metadata["derived"]["continuum_objective"] *= 1 + 1e-7
    (out / "metadata.json").write_text(json.dumps(metadata))
    problems = check_outputs(out, ref_dir, "gamma", 0)
    assert any("pairing_gap" in p for p in problems)
    assert any("continuum_objective" in p for p in problems)


def test_missing_or_extra_file_fails(tmp_path):
    ref_dir = REFERENCE / "shipped_configs" / "rates"
    out = _copy_reference(ref_dir, tmp_path / "out")
    (out / "errors.svg").unlink()
    assert check_outputs(out, ref_dir, "rates", 0)


def test_other_seed_checks_seeds_and_noise_free_values(tmp_path):
    ref_dir = REFERENCE / "shipped_configs" / "noise_probe"
    out = _copy_reference(ref_dir, tmp_path / "out")
    metadata = json.loads((out / "metadata.json").read_text())
    metadata["parameters"]["noise"]["seeds"] = [seed + 5 for seed in metadata["parameters"]["noise"]["seeds"]]
    (out / "metadata.json").write_text(json.dumps(metadata))

    def reseed(name, _, cell):
        if name == "seed_or_expected" and cell != "expected":
            return str(int(cell) + 5)
        return cell

    _edit_csv(out / "probe.csv", reseed)
    assert check_outputs(out, ref_dir, "noise_probe", 5) == []
    # seeds that did not move, or a changed noise-free trajectory, fail
    assert check_outputs(out, ref_dir, "noise_probe", 4)

    def bend_expected(name, number, cell):
        return repr(float(cell) * 1.001) if name == "partial_energy" and number == 2 else cell

    _edit_csv(out / "probe.csv", bend_expected)
    problems = check_outputs(out, ref_dir, "noise_probe", 5)
    assert len(problems) == 1 and "row 2 partial_energy" in problems[0]


def test_divergence_certificate_is_checked_at_every_seed(tmp_path):
    ref_dir = REFERENCE / "deblur_sweep" / "deblur"
    out = _copy_reference(ref_dir, tmp_path / "out")
    _edit_csv(out / "divergence.csv", lambda name, _, cell: "1e-9" if name == "h1_norm_sq" else cell)
    _edit_csv(out / "divergence.csv", lambda name, _, cell: str(int(cell) + 2) if name == "seed" else cell)
    problems = [p for p in check_outputs(out, ref_dir, "deblur", 2) if p.startswith("divergence.csv")]
    assert problems and all("below lower_bound" in p for p in problems)


def test_reordered_sobolev_sums_pass(tmp_path, monkeypatch):
    import numpy as np
    import tikhtorus.cli
    import tikhtorus.rates
    from run import ROOT

    def half_lattice_norm(field, s):
        # the l >= 0 half with doubled weights, as a fused sweep kernel sums it
        zero = field.lattice.zero_index
        weights = tikhtorus.rates.sobolev_weights(field.lattice, s)[zero:]
        power = weights * (field.coefficients.real**2 + field.coefficients.imag**2)[zero:]
        return float(np.sqrt(2.0 * np.sum(power[1:]) + power[0]))

    monkeypatch.setattr(tikhtorus.rates, "sobolev_norm", half_lattice_norm)
    monkeypatch.chdir(tmp_path)
    invocation = WORKLOADS["shipped_configs"][0]
    argv = invocation.argv("shipped_configs", 0)
    argv[argv.index("--config") + 1] = str(ROOT / invocation.config)
    assert tikhtorus.cli.main(argv) == 0
    out = tmp_path / invocation.out_dir("shipped_configs")
    ref_dir = REFERENCE / "shipped_configs" / invocation.label
    assert (out / "errors.csv").read_bytes() != (ref_dir / "errors.csv").read_bytes()
    assert check_outputs(out, ref_dir, invocation.experiment, 0) == []
