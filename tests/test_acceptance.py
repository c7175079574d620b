"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from nemem.algebra import diag_embed, singular_values, svd32
from nemem.cli import main as cli_main
from nemem.constitutive import MaterialParams
from nemem.membrane import Region, classify, plane_energy, psi, relaxed_energy
from nemem.microstructure import check_support_M, check_support_W, measure_pairing, young_measure_for
from nemem.relaxation import OracleConfig, relax_lamination
from nemem.verification import (
    regions_for,
    verify_energy_bounds,
    verify_stress_identities,
)

from helpers import (
    halton,
    matrix_from_invariants,
    plane_energy_direct,
    random_orthogonal2,
    random_rotation,
    sample_invariants,
    split_gaps,
)

REGIONS = (Region.L, Region.M, Region.W, Region.S)


def _verdict(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    return ok


def test_criterion_1_closed_form_vs_oracle():
    t0 = time.time()
    cfg = OracleConfig(depth=2)
    worst_hi, worst_lo = -np.inf, np.inf
    n_per_region = 150 // len(REGIONS) + 1
    for r in (2.0, 8.0, 100.0):
        params = MaterialParams(mu=2.0, r=r)
        rng = np.random.default_rng(int(r * 1000))
        u = halton(n_per_region, 2)
        v = halton(n_per_region, 3)
        count = 0
        for region in REGIONS:
            for k in range(n_per_region):
                if count >= 150:
                    break
                lam, dlt = sample_invariants(region, r, u[k], v[k])
                F = matrix_from_invariants(lam, dlt, rng)
                res = relax_lamination(F, params, cfg)
                worst_hi = max(worst_hi, res.gap)
                worst_lo = min(worst_lo, res.gap)
                count += 1
    dt = time.time() - t0
    ok = (-1e-9 <= worst_lo) and (worst_hi <= 5e-3) and dt <= 300.0
    assert _verdict(
        1,
        "closed form vs lamination oracle",
        ok,
        f"gap in [{worst_lo:.2e}, {worst_hi:.2e}], {dt:.0f}s",
    )


def test_criterion_2_plane_energy_vs_direct_minimization():
    t0 = time.time()
    worst = 0.0
    for r in (2.0, 8.0):
        params = MaterialParams(mu=2.0, r=r)
        rng = np.random.default_rng(int(r))
        done = 0
        while done < 100:
            F = rng.normal(size=(3, 2)) * rng.choice([0.5, 1.0, 2.0])
            closed = plane_energy(F, params)
            if not np.isfinite(closed):
                continue
            direct = plane_energy_direct(F, params)
            worst = max(worst, abs(direct - closed) / max(abs(closed), 1e-6))
            done += 1
    dt = time.time() - t0
    ok = worst <= 1e-6 and dt <= 120.0
    assert _verdict(
        2,
        "plane energy vs direct minimization",
        ok,
        f"worst rel err {worst:.2e}, {dt:.0f}s",
    )


def test_criterion_3_energy_well_identity():
    worst = 0.0
    for r in (1.5, 2.0, 8.0, 100.0):
        params = MaterialParams(mu=2.0, r=r)
        F = diag_embed(r ** (1.0 / 3.0), r ** (-1.0 / 6.0))
        worst = max(worst, abs(relaxed_energy(F, params).energy))
        worst = max(worst, abs(plane_energy(F, params)))
    ok = worst <= 1e-12
    assert _verdict(3, "energy well identity", ok, f"worst |energy| {worst:.2e}")


def test_criterion_4_spot_values():
    params = MaterialParams(mu=2.0, r=8.0)
    checks = [
        abs(psi(3.0, 1.0, params) - 0.58333333),
        abs(psi(1.6, 2.0, params) - 0.32842712),
        abs(psi(2.5, 2.0, params) - 0.3425),
    ]
    from nemem.membrane import membrane_stress

    st = membrane_stress(diag_embed(1.6, 1.25), params)
    checks.append(abs(st.principal_values[0] - 1.82842712))
    checks.append(abs(st.principal_values[1] - 1.82842712))
    assert st.classification == "equibiaxial"
    st = membrane_stress(diag_embed(3.0, 1.0 / 3.0), params)
    checks.append(abs(st.principal_values[0] - 3.16666667))
    assert st.classification == "uniaxial"
    st = membrane_stress(diag_embed(2.5, 0.8), params)
    checks.append(abs(st.principal_values[0] - 2.125))
    checks.append(abs(st.principal_values[1] - 1.56))
    assert st.classification == "biaxial"
    worst = max(checks)
    ok = worst <= 1e-8
    assert _verdict(4, "hand-evaluated spot values", ok, f"worst abs err {worst:.2e}")


def test_criterion_5_young_measure_identities():
    t0 = time.time()
    params = MaterialParams(mu=2.0, r=8.0)
    rng = np.random.default_rng(5)
    worst_bary = worst_pair = worst_split = 0.0
    support_ok = True
    for region in REGIONS:
        for _ in range(100):
            u, v = rng.uniform(size=2)
            lam, dlt = sample_invariants(region, 8.0, u, v)
            F = matrix_from_invariants(lam, dlt, rng)
            nu = young_measure_for(F, params)
            worst_bary = max(worst_bary, np.abs(nu.barycenter() - F).max())
            paired = measure_pairing(nu, lambda G: plane_energy(G, params))
            worst_pair = max(
                worst_pair, abs(paired - relaxed_energy(F, params).energy)
            )
            worst_split = max(worst_split, split_gaps(nu))
            if region is Region.M:
                support_ok &= check_support_M(nu, svd32(F).delta, params).passed
            if region is Region.W:
                support_ok &= check_support_W(nu, F).passed
    dt = time.time() - t0
    ok = (
        worst_bary <= 1e-12
        and worst_pair <= 1e-10
        and worst_split <= 1e-12
        and support_ok
        and dt <= 60.0
    )
    assert _verdict(
        5,
        "minimizing measure identities",
        ok,
        f"bary {worst_bary:.1e}, pairing {worst_pair:.1e}, "
        f"splits {worst_split:.1e}, support {'ok' if support_ok else 'BAD'}, {dt:.0f}s",
    )


def test_criterion_6_stress_identities():
    t0 = time.time()
    rep = verify_stress_identities(MaterialParams(mu=2.0, r=8.0), n_samples=50, seed=6)
    dt = time.time() - t0
    ok = rep.passed and dt <= 120.0
    assert _verdict(
        6,
        "stress identities",
        ok,
        f"worst err/tol {rep.worst_violation:.2e} at {rep.worst_point}, {dt:.0f}s",
    )


def test_criterion_7_branch_inequalities():
    t0 = time.time()
    worst = -np.inf
    for r in (1.01, 2.0, 8.0, 100.0):
        rep = verify_energy_bounds(MaterialParams(mu=2.0, r=r), grid_n=200)
        worst = max(worst, rep.worst_violation)
        assert rep.passed
    dt = time.time() - t0
    ok = worst <= 1e-12 and dt <= 60.0
    assert _verdict(
        7, "branch-bound inequalities", ok, f"worst violation {worst:.2e}, {dt:.0f}s"
    )


def test_criterion_8_convexity_and_monotonicity():
    t0 = time.time()
    params = MaterialParams(mu=2.0, r=8.0)
    rng = np.random.default_rng(8)
    n = 10_000
    X1 = rng.normal(size=(n, 3, 2)) * 1.5
    X2 = rng.normal(size=(n, 3, 2)) * 1.5
    A1 = rng.normal(size=(n, 3)) * 1.5
    A2 = rng.normal(size=(n, 3)) * 1.5

    def g(X, A):
        lam, _ = singular_values(X)
        return psi(lam, np.linalg.norm(A, axis=-1), params)

    g1, g2 = g(X1, A1), g(X2, A2)
    worst_cvx = -np.inf
    for t in (0.25, 0.5, 0.75):
        gm = g(t * X1 + (1 - t) * X2, t * A1 + (1 - t) * A2)
        worst_cvx = max(worst_cvx, float(np.max(gm - (t * g1 + (1 - t) * g2))))

    lam = np.linspace(0.0, 6.0, 500)
    dlt = np.linspace(0.0, 6.0, 500)
    L, D = np.meshgrid(lam, dlt, indexing="ij")
    W = psi(L, D, params)
    worst_mono = -min(float(np.min(np.diff(W, axis=0))), float(np.min(np.diff(W, axis=1))))
    dt = time.time() - t0
    ok = worst_cvx <= 1e-10 and worst_mono <= 1e-10 and dt <= 60.0
    assert _verdict(
        8,
        "convexity and monotonicity",
        ok,
        f"convexity {worst_cvx:.2e}, monotonicity {worst_mono:.2e}, {dt:.0f}s",
    )


def test_criterion_9_frame_indifference_and_determinism(tmp_path, capsys):
    params = MaterialParams(mu=2.0, r=8.0)
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        F = rng.normal(size=(3, 2)) * rng.choice([0.5, 1.0, 2.0])
        Q = random_rotation(rng)
        R = random_orthogonal2(rng)
        a = relaxed_energy(F, params)
        b = relaxed_energy(Q @ F @ R, params)
        worst = max(worst, abs(a.energy - b.energy) / max(1.0, abs(a.energy)))
        assert a.region is b.region

    scan_args = [
        "scan",
        "--lamM-min", "0.2", "--lamM-max", "4.0", "--lamM-count", "30",
        "--delta-min", "0.0", "--delta-max", "3.0", "--delta-count", "30",
        "--r", "8", "--mu", "2",
    ]
    # Determinism: two runs of each command give the same bytes.
    cli_main(scan_args + ["--out", str(tmp_path / "first.csv")])
    cli_main(scan_args + ["--out", str(tmp_path / "second.csv")])
    scan_same = (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()

    relax_args = [
        "relax", "--F", "1 0; 0 1; 0 0", "--r", "8", "--mu", "2",
    ]
    cli_main(relax_args)
    out_first = capsys.readouterr().out
    cli_main(relax_args)
    relax_same = out_first == capsys.readouterr().out

    ok = worst <= 1e-12 and scan_same and relax_same
    assert _verdict(
        9,
        "frame indifference and determinism",
        ok,
        f"frame err {worst:.2e}, scan {'ok' if scan_same else 'BAD'}, "
        f"oracle {'ok' if relax_same else 'BAD'}",
    )
