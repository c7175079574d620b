"""Verification suites: deterministic reports over grids and point clouds."""

import numpy as np
import pytest

from nemem.constitutive import MaterialParams
from nemem.membrane import Region, classify
from nemem.verification import (
    _Worst,
    run_suites,
    verify_energy_bounds,
    verify_envelope_chain,
    verify_frame_and_growth,
    verify_stress_identities,
)


@pytest.mark.parametrize("r", [1.01, 2.0, 8.0, 100.0])
def test_energy_bounds_suite_passes(r):
    rep = verify_energy_bounds(MaterialParams(mu=2.0, r=r), grid_n=200)
    assert rep.passed
    assert rep.worst_violation <= 1e-12
    assert rep.suite_name == "appendixA"


def test_energy_bounds_requires_anisotropy():
    with pytest.raises(ValueError):
        verify_energy_bounds(MaterialParams(mu=1.0, r=1.0), grid_n=50)


def test_energy_bounds_coverage_manifest():
    rep = verify_energy_bounds(MaterialParams(mu=2.0, r=8.0), grid_n=50)
    assert "relaxed-le-branch1-grid" in rep.checks
    assert "relaxed-le-branch2-grid" in rep.checks
    assert "relaxed-le-branch3-grid" in rep.checks
    assert "cubic-substitution-nonneg" in rep.checks
    assert "cubic-substitution-consistency" in rep.checks
    assert "equality-on-wrinkle-edge" in rep.checks


def test_stress_suite_passes():
    rep = verify_stress_identities(MaterialParams(mu=2.0, r=8.0), n_samples=10, seed=0)
    assert rep.passed
    assert rep.worst_violation <= 1.0


def test_envelope_suite_passes():
    rep = verify_envelope_chain(MaterialParams(mu=2.0, r=8.0), n_samples=8, seed=0)
    assert rep.passed


def test_frame_suite_passes():
    rep = verify_frame_and_growth(MaterialParams(mu=2.0, r=8.0), n_samples=300, seed=0)
    assert rep.passed


def test_reports_are_deterministic():
    p = MaterialParams(mu=2.0, r=8.0)
    a = verify_stress_identities(p, n_samples=5, seed=7)
    b = verify_stress_identities(p, n_samples=5, seed=7)
    assert a == b
    a = verify_energy_bounds(p, grid_n=60)
    b = verify_energy_bounds(p, grid_n=60)
    assert a == b


def test_run_suites_unknown_name():
    with pytest.raises(KeyError):
        run_suites("nope", [MaterialParams(mu=1.0, r=2.0)])


@pytest.mark.parametrize(
    "kwargs, name", [({"n_samples": 0}, "n_samples"), ({"grid_n": 1}, "grid_n")]
)
def test_run_suites_rejects_empty_samples_and_grids(kwargs, name):
    with pytest.raises(ValueError, match=name):
        run_suites("stress", [MaterialParams(mu=1.0, r=2.0)], **kwargs)


def test_run_suites_all_skips_isotropic_energy_bounds():
    reports = run_suites(
        "all",
        [MaterialParams(mu=1.0, r=1.0)],
        grid_n=40,
        n_samples=4,
        seed=0,
    )
    names = [rep.suite_name for rep in reports]
    assert "appendixA" not in names
    assert {"stress", "envelope", "frame"} <= set(names)


def test_report_serialization():
    rep = verify_energy_bounds(MaterialParams(mu=2.0, r=8.0), grid_n=40)
    d = rep.to_json_dict()
    assert d["pass"] is True
    assert d["suite_name"] == "appendixA"
    assert isinstance(d["worst_point"], list)
    assert d["samples"] == rep.samples


def test_report_names_the_check_of_its_worst_violation():
    worst = _Worst()
    worst.update("a", [0.1, 0.3], [1.0, 2.0], 0.5)
    worst.update("b", np.array([]), [], [])
    worst.update("c", [2.0], 3.0, 0.25)
    worst.update("a", [1.0], 4.0, 1.0)
    rep = worst.report("demo", 4, 1.0)
    assert rep.checks == ("a", "b", "c")
    assert (rep.worst_check, rep.worst_violation, rep.worst_point) == ("c", 2.0, (3.0, 0.25))
    assert not rep.passed
    assert rep.to_json_dict()["worst_check"] == "c"


def test_report_gives_each_check_its_worst_point_and_region():
    p = MaterialParams(mu=2.0, r=8.0)
    worst = _Worst(p)
    worst.update("a", [0.1, 0.3], [1.0, 2.0], 0.5)
    worst.update("b", np.array([]), [], [])
    worst.update("c", [2.0], 3.0, 0.25)
    worst.update("a", [0.2], 4.0, 1.0)
    worst.update("d", [0.5], np.nan, np.nan)
    rep = worst.report("demo", 5, 1.0)
    assert tuple(c.name for c in rep.by_check) == rep.checks == ("a", "b", "c", "d")
    got = [(c.worst_violation, c.worst_point, c.region) for c in rep.by_check]
    assert got[0] == (0.3, (2.0, 0.5), Region.L)
    assert got[1][0] == -np.inf and np.isnan(got[1][1]).all() and got[1][2] is None
    assert got[2] == (2.0, (3.0, 0.25), Region.W)
    assert got[3][0] == 0.5 and got[3][2] is None
    assert (rep.worst_check, rep.worst_point) == ("c", (3.0, 0.25))
    d = rep.to_json_dict()["by_check"]
    assert list(d) == ["a", "b", "c", "d"]
    assert d["a"] == {"worst_violation": 0.3, "worst_point": [2.0, 0.5], "region": "L"}
    assert d["b"] == {"worst_violation": -np.inf, "worst_point": [None, None], "region": None}
    assert d["d"]["worst_point"] == [None, None]
    # Without a material the points keep no region.
    assert _Worst().report("demo", 0, 1.0).by_check == ()


@pytest.mark.parametrize(
    "suite",
    [
        lambda p: verify_energy_bounds(p, grid_n=40),
        lambda p: verify_stress_identities(p, n_samples=3, seed=0),
        lambda p: verify_envelope_chain(p, n_samples=4, seed=0),
        lambda p: verify_frame_and_growth(p, n_samples=50, seed=0),
    ],
    ids=["appendixA", "stress", "envelope", "frame"],
)
def test_every_check_reports_its_own_worst(suite):
    p = MaterialParams(mu=2.0, r=8.0)
    rep = suite(p)
    by = {c.name: c for c in rep.by_check}
    assert list(by) == list(rep.checks)
    assert max(c.worst_violation for c in rep.by_check) == rep.worst_violation
    top = by[rep.worst_check]
    assert (top.worst_violation, top.worst_point) == (rep.worst_violation, rep.worst_point)
    for c in rep.by_check:
        if np.isfinite(c.worst_point).all():
            assert c.region is classify(*c.worst_point, p)
        else:
            assert c.region is None
    assert rep.to_json_dict()["by_check"] == {c.name: c.to_json_dict() for c in rep.by_check}


@pytest.mark.parametrize(
    "suite",
    [
        lambda p: verify_energy_bounds(p, grid_n=40),
        lambda p: verify_stress_identities(p, n_samples=3, seed=0),
        lambda p: verify_envelope_chain(p, n_samples=4, seed=0),
        lambda p: verify_frame_and_growth(p, n_samples=50, seed=0),
    ],
    ids=["appendixA", "stress", "envelope", "frame"],
)
def test_every_suite_names_one_of_its_checks(suite):
    rep = suite(MaterialParams(mu=2.0, r=8.0))
    assert rep.worst_check in rep.checks
    assert rep.to_json_dict()["worst_check"] == rep.worst_check


def test_near_isotropic_limit():
    rep = verify_energy_bounds(MaterialParams(mu=2.0, r=1.0 + 1e-9), grid_n=80)
    assert rep.passed
