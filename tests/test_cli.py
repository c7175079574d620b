"""Command-line interface: parsing, exit codes, file emission, determinism."""

import argparse
import json
import pathlib
import shlex

import numpy as np
import pytest

from helpers import scan_csv_reference
from nemem import cli
from nemem.algebra import diag_embed
from nemem.cli import main
from nemem.constitutive import MaterialParams
from nemem.membrane import Region, classify, membrane_stress, plane_energy, psi
from nemem.relaxation import _NORM_MAX


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_energy_from_invariants(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--lamM", "3", "--delta", "1", "--r", "8", "--mu", "2"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["region"] == "W"
    assert abs(rec["energy"] - 0.58333333) <= 1e-8


def test_energy_normalized(capsys):
    code, out, _ = run_cli(
        capsys,
        "energy",
        "--lamM", "3", "--delta", "1", "--r", "8", "--mu", "2", "--normalized",
    )
    rec = json.loads(out)
    assert abs(rec["energy"] - 0.58333333) <= 1e-8  # mu/2 = 1 here


def test_region_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "region", "--lamM", "1.5", "--delta", "1.0", "--r", "8"
    )
    assert code == 0
    assert json.loads(out) == {"region": "L"}


def test_stress_from_matrix(capsys):
    code, out, _ = run_cli(
        capsys, "stress", "--F", "2.5 0; 0 0.8; 0 0", "--r", "8", "--mu", "2"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["classification"] == "biaxial"
    np.testing.assert_allclose(rec["principal_values"], [2.125, 1.56], atol=1e-8)


def test_energy_matrix_input(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--F", "2 0; 0 0.70710678118654752; 0 0", "--r", "8", "--mu", "2"
    )
    rec = json.loads(out)
    assert abs(rec["energy"]) <= 1e-10


def test_energy3d(capsys):
    code, out, _ = run_cli(
        capsys, "energy3d", "--F", "1 0 0; 0 1 0; 0 0 1", "--n", "1 0 0",
        "--r", "8", "--mu", "2",
    )
    assert code == 0
    assert abs(json.loads(out)["energy"] - 1.25) <= 1e-12


def test_energy3d_off_shell(capsys):
    code, out, _ = run_cli(
        capsys, "energy3d", "--F", "2 0 0; 0 1 0; 0 0 1", "--r", "8", "--mu", "2"
    )
    assert code == 0
    assert json.loads(out)["energy"] == "inf"


@pytest.mark.parametrize(
    "argv",
    [
        ["--F", "nan 0 0; 0 1 0; 0 0 1", "--n", "1 0 0"],
        ["--F", "1 0 0; 0 1 0; 0 0 1", "--n", "nan 0 0"],
        ["--F", "nan 0 0; 0 1 0; 0 0 1"],
        ["--F", "inf 0 0; 0 1 0; 0 0 1"],
    ],
    ids=["nan-F", "nan-n", "nan-F-minimized", "inf-F-minimized"],
)
def test_energy3d_non_finite_input_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "energy3d", *argv, "--r", "8", "--mu", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "must be finite" in err


@pytest.mark.parametrize("argv", [[], ["--n", "1 0 0"]], ids=["minimized", "director"])
def test_energy3d_entries_above_the_bound_exit_2(capsys, argv):
    # A finite shell matrix whose squares overflow ended in a traceback,
    # or, with a director, in {"energy": "nan"} and exit 0.
    code, out, err = run_cli(capsys, "energy3d", "--F", "1e200 0 0; 0 1e-200 0; 0 0 1", "--r", "8", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "at most 1e+100" in err


def test_energy3d_minimized_over_director(capsys):
    _, out_min, _ = run_cli(
        capsys, "energy3d", "--F", "1 0 0; 0 1 0; 0 0 1", "--r", "8", "--mu", "2"
    )
    _, out_n, _ = run_cli(
        capsys, "energy3d", "--F", "1 0 0; 0 1 0; 0 0 1", "--n", "0 1 0",
        "--r", "8", "--mu", "2",
    )
    assert json.loads(out_min)["energy"] <= json.loads(out_n)["energy"] + 1e-12


@pytest.mark.parametrize("command", ["energy", "region", "stress"])
@pytest.mark.parametrize(
    "lam, dlt", [("nan", "1"), ("1", "nan"), ("inf", "1"), ("2", "inf"), ("1e200", "1")]
)
def test_non_finite_invariants_exit_2(capsys, command, lam, dlt):
    code, out, err = run_cli(capsys, command, "--lamM", lam, "--delta", dlt, "--r", "8")
    assert code == 2 and out == ""
    assert "finite" in err


@pytest.mark.filterwarnings("error")
def test_huge_entries_keep_their_invariants(capsys):
    # svd32 scales a matrix with entries near the float range before its
    # Gram matrix, so the invariants are right and nothing warns; a delta
    # above the invariant bound is still a usage error.
    F = "1e80 0; 0 1; 0 0"
    code, out, err = run_cli(capsys, "energy", "--F", F, "--r", "8", "--mu", "2")
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["region"] == "S" and np.isfinite(rec["energy"]) and rec["energy"] > 0.0
    code, out, err = run_cli(capsys, "stress", "--F", F, "--r", "8", "--mu", "2")
    assert code == 0 and err == ""
    assert json.loads(out)["principal_values"][1] == 4.0
    for command in ("energy", "stress"):
        code, out, err = run_cli(capsys, command, "--F", "1e80 0; 0 1e30; 0 0", "--r", "8")
        assert code == 2 and out == ""
        assert "at most 1e+100" in err


def test_invariants_with_a_tiny_smaller_stretch_keep_their_delta(capsys):
    # (1e100, 1) is built as diag(1e100, 1e-100), whose second row's
    # squares underflow once svd32 scales the matrix: delta must stay 1.
    code, out, err = run_cli(capsys, "stress", "--lamM", "1e100", "--delta", "1", "--r", "2")
    assert code == 0 and err == ""
    assert json.loads(out)["region"] == "W"


def test_non_finite_energy_is_a_json_string(capsys):
    # Off the incompressibility shell the 3D density is +inf; standard JSON
    # has no token for it.
    code, out, _ = run_cli(capsys, "energy3d", "--F", "2 0 0; 0 1 0; 0 0 1", "--r", "8")
    assert code == 0
    assert "Infinity" not in out
    assert json.loads(out) == {"energy": "inf"}


def test_relax_rank_deficient_exit_code(capsys):
    # The plane energy is +inf at F = 0, but a witness with finite atoms
    # reaches the relaxed energy 0: a result, not a domain error.
    code, out, err = run_cli(
        capsys, "relax", "--F", "0 0; 0 0; 0 0", "--r", "8", "--mu", "2"
    )
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["closed_form"] == 0.0 and -1e-9 <= rec["gap"] <= 5e-3
    nu = rec["best_measure"]
    np.testing.assert_allclose(nu["barycenter"], np.zeros((3, 2)), rtol=0.0, atol=1e-15)
    params = MaterialParams(mu=2.0, r=8.0)
    paired = sum(atom["weight"] * plane_energy(np.array(atom["matrix"]), params) for atom in nu["atoms"])
    assert abs(paired - rec["value"]) <= 1e-15


def test_relax_huge_target_exit_code(capsys):
    # Invariants of the target are within bounds (delta 8.1e99), those the
    # search would reach are not: a domain error naming the bound.
    code, out, err = run_cli(capsys, "relax", "--F", "9e49 0; 0 9e49; 0 0", "--r", "8")
    assert code == 3 and out == ""
    assert "domain error" in err and f"{_NORM_MAX:.6g}" in err


@pytest.mark.parametrize("x", ["1e60", "1e200"])
def test_relax_target_beyond_the_invariant_bound_exit_code(capsys, x):
    # The target's own invariants are above 1e100 (its squared entries
    # overflow at 1e200): still the norm's domain error, not a usage error.
    code, out, err = run_cli(capsys, "relax", "--F", f"{x} 0; 0 {x}; 0 0", "--r", "8")
    assert code == 3 and out == ""
    assert "domain error" in err and f"{_NORM_MAX:.6g}" in err


def test_parse_error_names_bad_token(capsys):
    code, _, err = run_cli(capsys, "energy", "--F", "a b; 0 1; 0 0", "--r", "8")
    assert code == 2
    assert "'a'" in err


def test_bad_director_token_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "energy3d", "--F", "1 0 0; 0 1 0; 0 0 1", "--n", "1 x 0", "--r", "8"
    )
    assert code == 2 and out == ""
    assert "'x'" in err


def test_wrong_matrix_shape(capsys):
    code, _, err = run_cli(capsys, "energy", "--F", "1 0; 0 1", "--r", "8")
    assert code == 2


def test_stress_out_of_domain_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "stress", "--F", "1 0; 0 0; 0 0", "--r", "8", "--mu", "2"
    )
    assert code == 3
    assert "delta" in err


def test_unknown_verify_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope", "--r", "8")
    assert code == 2


def test_verify_energy_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "appendixA", "--r", "8", "--grid", "120"
    )
    assert code == 0
    rec = json.loads(out.strip().splitlines()[0])
    assert rec["pass"] is True and rec["suite_name"] == "appendixA"


def test_verify_frame_multiple_r(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "frame", "--r", "2", "--r", "8", "--samples", "100",
        "--seed", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2


def test_laminate_json(capsys):
    code, out, _ = run_cli(
        capsys, "laminate", "--F", "1 0; 0 1; 0 0", "--r", "8", "--mu", "2"
    )
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"barycenter", "atoms", "tree"}
    assert len(rec["atoms"]) == 4
    assert abs(sum(a["weight"] for a in rec["atoms"]) - 1.0) <= 1e-14


def test_laminate_of_a_tiny_matrix(capsys):
    # The singular values of a matrix far below 1 are exact, so the
    # laminate's barycenter keeps the target's largest stretch.
    code, out, _ = run_cli(capsys, "laminate", "--F", "1e-200 0; 0 1e-200; 0 0", "--r", "8")
    assert code == 0
    assert json.loads(out)["barycenter"][0][0] == 1e-200


def test_laminate_near_isotropy(capsys):
    # A near-isotropic target of the neo-Hookean material (r = 1) lies in
    # the liquid region; its shear and wrinkle atoms keep their stretches.
    code, out, err = run_cli(capsys, "laminate", "--F", "0.9999999 0; 0 0.9999999; 0 0", "--r", "1")
    assert (code, err) == (0, "")
    np.testing.assert_allclose(json.loads(out)["barycenter"], np.diag([0.9999999, 0.9999999, 0.0])[:, :2], atol=1e-15)


def test_relax_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "relax", "--F", "2.5 0; 0 0.8; 0 0", "--r", "8", "--mu", "2",
    )
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"value", "closed_form", "gap", "best_measure"}
    assert abs(rec["gap"]) <= 5e-3


def test_scan_csv(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--lamM-min", "1", "--lamM-max", "3", "--lamM-count", "3",
        "--delta-min", "0.5", "--delta-max", "2.5", "--delta-count", "3",
        "--r", "8", "--mu", "2", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "lamM,delta,region,energy,sigma1,sigma2"
    assert len(lines) == 10  # header + 3x3 grid in row-major order
    # (1.0, 2.5) is unrealizable: tagged Invalid with empty numeric cells.
    row = lines[3].split(",")
    assert row[2] == "Invalid" and row[3] == row[4] == row[5] == ""


def test_scan_round_trip(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    run_cli(
        capsys,
        "scan",
        "--lamM-min", "0.5", "--lamM-max", "3", "--lamM-count", "7",
        "--delta-min", "0.1", "--delta-max", "2.5", "--delta-count", "5",
        "--r", "8", "--mu", "2", "--out", str(out_path),
    )
    p = MaterialParams(mu=2.0, r=8.0)
    for line in out_path.read_text().splitlines()[1:]:
        lam_s, dlt_s, tag, energy_s, _, _ = line.split(",")
        if tag == "Invalid":
            continue
        # Re-evaluating at the parsed grid values reproduces the energy
        # bit for bit.
        assert repr(psi(float(lam_s), float(dlt_s), p)) == energy_s


def test_scan_json_format(tmp_path, capsys):
    out_path = tmp_path / "scan.json"
    code, _, _ = run_cli(
        capsys,
        "scan",
        "--lamM-min", "1", "--lamM-max", "2", "--lamM-count", "2",
        "--delta-min", "0.5", "--delta-max", "1.0", "--delta-count", "2",
        "--r", "8", "--mu", "2", "--out", str(out_path), "--format", "json",
    )
    assert code == 0
    records = json.loads(out_path.read_text())
    assert len(records) == 4
    assert set(records[0]) == {"lamM", "delta", "region", "energy", "sigma1", "sigma2"}


def test_scan_unwritable_path(capsys):
    code, _, err = run_cli(
        capsys,
        "scan",
        "--lamM-min", "1", "--lamM-max", "2", "--lamM-count", "2",
        "--delta-min", "0.5", "--delta-max", "1.0", "--delta-count", "2",
        "--r", "8", "--out", "/nonexistent-dir/scan.csv",
    )
    assert code == 4


def test_scan_count_validation(capsys):
    code, _, err = run_cli(
        capsys,
        "scan",
        "--lamM-min", "1", "--lamM-max", "2", "--lamM-count", "1",
        "--delta-min", "0.5", "--delta-max", "1.0", "--delta-count", "2",
        "--r", "8", "--out", "x.csv",
    )
    assert code == 2


@pytest.mark.parametrize("flag", ["--lamM-min", "--lamM-max", "--delta-min", "--delta-max"])
@pytest.mark.parametrize("value", ["nan", "inf", "1e200"])
def test_scan_rejects_non_finite_bounds(tmp_path, capsys, flag, value):
    bounds = {"--lamM-min": "0.2", "--lamM-max": "4", "--delta-min": "0", "--delta-max": "3"}
    bounds[flag] = value
    argv = ["scan", "--lamM-count", "3", "--delta-count", "3", "--r", "8"]
    for name, text in bounds.items():
        argv += [name, text]
    out_path = tmp_path / "scan.csv"
    code, _, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert flag in err and "finite" in err
    assert not out_path.exists()


README_SCAN = [
    "scan",
    "--lamM-min", "0.2", "--lamM-max", "4", "--lamM-count", "100",
    "--delta-min", "0", "--delta-max", "3", "--delta-count", "100",
    "--mu", "2",
]


SMALL_SCAN = [
    "scan",
    "--lamM-min", "0.5", "--lamM-max", "3", "--lamM-count", "3",
    "--delta-min", "0", "--delta-max", "2.5", "--delta-count", "3",
    "--mu", "2", "--r", "8",
]


_SCAN_CASES = pytest.mark.parametrize(
    "args",
    [README_SCAN + ["--r", r] for r in ("1.01", "2", "8", "100")] + [SMALL_SCAN],
    ids=["readme-r1.01", "readme-r2", "readme-r8", "readme-r100", "invalid-and-zero-delta"],
)
_SCAN_KEYS = ("lamM", "delta", "region", "energy", "sigma1", "sigma2")


@_SCAN_CASES
def test_scan_csv_matches_the_row_writer(tmp_path, capsys, args):
    # The CSV is written by columns; it must be the row-by-row reference
    # writer's text, byte for byte, on the values of the JSON format.
    csv_path, json_path = tmp_path / "scan.csv", tmp_path / "scan.json"
    assert run_cli(capsys, *args, "--out", str(csv_path))[0] == 0
    assert run_cli(capsys, *args, "--out", str(json_path), "--format", "json")[0] == 0
    rows = [tuple(rec[k] for k in _SCAN_KEYS) for rec in json.loads(json_path.read_text())]
    assert csv_path.read_bytes() == scan_csv_reference(rows).encode()
    if args is SMALL_SCAN:
        assert {row[2] for row in rows} >= {"Invalid", "L"} and (0.5, 0.0, "L", 0.0, None, None) in rows


@_SCAN_CASES
def test_scan_json_matches_the_dict_writer(tmp_path, capsys, args):
    # The JSON converts non-finite floats once per column; it must be the
    # text of _json_text over one dict per cell, keys in the scan's column
    # order, byte for byte (its floats read back exactly).
    path = tmp_path / "scan.json"
    assert run_cli(capsys, *args, "--out", str(path), "--format", "json")[0] == 0
    records = [dict(zip(_SCAN_KEYS, rec.values())) for rec in json.loads(path.read_text())]
    assert path.read_bytes() == (cli._json_text(records) + "\n").encode()


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
def test_scan_agrees_with_scalar_api(tmp_path, capsys, r):
    # The scan evaluates the grid with array calls; every cell must match
    # the scalar functions it replaces.
    args = README_SCAN + ["--r", repr(r)]
    assert run_cli(capsys, *args, "--out", str(tmp_path / "a.csv"))[0] == 0
    assert run_cli(capsys, *args, "--out", str(tmp_path / "b.csv"))[0] == 0
    text = (tmp_path / "a.csv").read_bytes()
    assert text == (tmp_path / "b.csv").read_bytes()

    p = MaterialParams(mu=2.0, r=r)
    lines = text.decode().splitlines()
    assert len(lines) == 1 + 100 * 100
    for line in lines[1:]:
        lam_s, dlt_s, tag, energy_s, s1_s, s2_s = line.split(",")
        lam, dlt = float(lam_s), float(dlt_s)
        region = classify(lam, dlt, p)
        assert tag == region.value
        if region is Region.INVALID:
            assert energy_s == s1_s == s2_s == ""
            continue
        assert energy_s == repr(psi(lam, dlt, p))
        if not 0.0 < dlt < lam * lam:
            assert s1_s == s2_s == ""
            continue
        ref = membrane_stress(diag_embed(lam, dlt / lam), p).principal_values
        np.testing.assert_allclose([float(s1_s), float(s2_s)], ref, rtol=1e-12, atol=1e-12)


def test_scan_is_deterministic(tmp_path, capsys):
    # The scan is deterministic: two runs write the same bytes.
    args = [
        "scan",
        "--lamM-min", "0.2", "--lamM-max", "4", "--lamM-count", "40",
        "--delta-min", "0.0", "--delta-max", "3", "--delta-count", "40",
        "--r", "8", "--mu", "2",
    ]
    run_cli(capsys, *args, "--out", str(tmp_path / "first.csv"))
    run_cli(capsys, *args, "--out", str(tmp_path / "second.csv"))
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["relax", "--F", "1 0; 0 1; 0 0", "--r", "8", "--n-dirs", "128"],
        ["relax", "--F", "1 0; 0 1; 0 0", "--r", "8", "--seed", "0"],
        ["relax", "--F", "1 0; 0 1; 0 0", "--r", "8", "--depth", "0"],
        ["relax", "--F", "1 0; 0 1; 0 0", "--r", "8", "--depth", "3"],
        ["energy", "--lamM", "3", "--delta", "1", "--kappa", "2"],
        ["--config", "nemem.cfg", "energy", "--lamM", "3", "--delta", "1"],
    ],
    ids=["n-dirs", "seed", "depth-0", "depth-3", "kappa", "config"],
)
def test_relax_budget_flag_is_a_usage_error(capsys, argv):
    # The oracle's search budget is fixed and has no random part, its depth
    # is 1 or 2, kappa is read by no command, and there is no defaults
    # file: each is an argparse usage error.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: nemem")


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        for argv in (
            ["energy", "--lamM", "3", "--delta", "1", "--r", "8"],
            ["region", "--lamM", "1.5", "--delta", "1.0", "--r", "8"],
            ["laminate", "--F", "1 0; 0 1; 0 0", "--r", "8"],
            ["energy", "--lamM", "nan", "--delta", "1"],
        ):
            main(argv)
        assert built.count("nemem") == 1
    finally:
        cli._build_parser.cache_clear()
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value, name",
    [("--samples", "0", "n_samples"), ("--grid", "0", "grid_n"), ("--grid", "1", "grid_n")],
)
def test_verify_rejects_empty_samples_and_grids(capsys, flag, value, name):
    # Zero samples used to pass having checked nothing; an empty grid used
    # to fail inside numpy.
    code, out, err = run_cli(capsys, "verify", "--suite", "stress", "--r", "8", flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and name in err


def _readme_commands():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("nemem ")]


def test_readme_commands_succeed(tmp_path, capsys):
    ran = set()
    for argv in _readme_commands():
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        ran.add(argv[0])
    assert ran == {"energy", "region", "stress", "energy3d", "laminate", "relax", "scan", "verify"}
    assert (tmp_path / "landscape.csv").exists()
