"""Pointwise 3D densities: trace form, director-minimized form, curvature."""

import numpy as np
import pytest

from nemem.constitutive import (
    MaterialParams,
    bulk_energy,
    entropic_energy,
    frank_energy,
    growth_constant,
    step_length_tensor,
)

from helpers import random_rotation

E1 = np.array([1.0, 0.0, 0.0])


def _random_unimodular(rng):
    F = rng.normal(size=(3, 3))
    det = np.linalg.det(F)
    while abs(det) < 1e-3:
        F = rng.normal(size=(3, 3))
        det = np.linalg.det(F)
    return F / np.sign(det) / abs(det) ** (1.0 / 3.0)


@pytest.mark.parametrize(
    "bad",
    [
        dict(mu=0.0, r=2.0),
        dict(mu=1.0, r=0.5),
        dict(mu=1.0, r=2.0, kappa=-1.0),
        dict(mu=1.0, r=float("inf")),
        dict(mu=float("inf"), r=2.0),
        dict(mu=1.0, r=float("nan")),
    ],
)
def test_material_params_validation(bad):
    with pytest.raises(ValueError):
        MaterialParams(**bad)


def test_step_length_isotropic_limit():
    p = MaterialParams(mu=1.0, r=1.0)
    rng = np.random.default_rng(0)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    np.testing.assert_allclose(step_length_tensor(n, p), np.eye(3), atol=1e-15)


def test_step_length_r8_along_x():
    p = MaterialParams(mu=1.0, r=8.0)
    np.testing.assert_allclose(
        step_length_tensor(E1, p), np.diag([4.0, 0.5, 0.5]), atol=1e-14
    )


def test_step_length_unit_determinant():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        p = MaterialParams(mu=1.0, r=float(rng.uniform(1.0, 50.0)))
        ell = step_length_tensor(n, p)
        assert abs(np.linalg.det(ell) - 1.0) <= 1e-12
        np.testing.assert_allclose(ell, ell.T, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(ell)) > 0.0


def test_step_length_rejects_non_unit_director():
    p = MaterialParams(mu=1.0, r=2.0)
    with pytest.raises(ValueError):
        step_length_tensor(np.array([1.0, 1.0, 0.0]), p)


_NAN_F = np.diag([np.nan, 1.0, 1.0])
_INF_F = np.diag([np.inf, 1.0, 1.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda p: entropic_energy(_NAN_F, E1, p),
        lambda p: entropic_energy(_INF_F, E1, p),
        lambda p: entropic_energy(np.eye(3), np.array([np.nan, 0.0, 0.0]), p),
        lambda p: bulk_energy(_NAN_F, p),
        lambda p: bulk_energy(_INF_F, p),
        lambda p: step_length_tensor(np.array([np.nan, 0.0, 0.0]), p),
        lambda p: step_length_tensor(np.array([np.inf, 0.0, 0.0]), p),
    ],
    ids=["entropic-nan-F", "entropic-inf-F", "entropic-nan-n", "bulk-nan-F", "bulk-inf-F",
         "step-nan-n", "step-inf-n"],
)
def test_non_finite_input_is_rejected(call):
    # NaN passes every |x - 1| > tol test, so it is refused before them;
    # a finite F off the shell stays +inf.
    with pytest.raises(ValueError, match="finite"):
        call(MaterialParams(mu=2.0, r=8.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda p: bulk_energy(np.eye(2), p),
        lambda p: entropic_energy(np.eye(2), [1.0, 0.0], p),
        lambda p: entropic_energy(np.eye(3), [1.0, 0.0], p),
        lambda p: step_length_tensor(np.array([1.0, 0.0]), p),
    ],
    ids=["bulk-2x2-F", "entropic-2x2-F", "entropic-2-vector-n", "step-2-vector-n"],
)
def test_wrong_shapes_are_rejected(call):
    # A 2x2 identity has det 1, so it passed the shell test and got -0.75,
    # below the density's minimum of 0; a 2-vector director made numpy's
    # matmul raise.  Each is refused with the shape it should have.
    with pytest.raises(ValueError, match="must have shape"):
        call(MaterialParams(mu=2.0, r=8.0))


def test_entropic_energy_identity():
    p = MaterialParams(mu=2.0, r=8.0)
    assert abs(entropic_energy(np.eye(3), E1, p) - 1.25) <= 1e-14


def test_entropic_energy_off_shell_is_infinite():
    p = MaterialParams(mu=2.0, r=8.0)
    assert entropic_energy(np.diag([2.0, 1.0, 1.0]), E1, p) == np.inf


def test_entropic_energy_spontaneous_state():
    # Stretch r^(1/3) along the director with transverse contraction
    # r^(-1/6) annihilates the energy.
    p = MaterialParams(mu=2.0, r=8.0)
    F = np.diag([2.0, 2.0**-0.5, 2.0**-0.5])
    assert abs(entropic_energy(F, E1, p)) <= 1e-14


def test_bulk_energy_examples():
    p = MaterialParams(mu=2.0, r=8.0)
    assert abs(bulk_energy(np.eye(3), p) - 1.25) <= 1e-14
    assert abs(bulk_energy(np.diag([2.0, 2.0**-0.5, 2.0**-0.5]), p)) <= 1e-14


def test_bulk_energy_neo_hookean_reduction():
    p = MaterialParams(mu=1.7, r=1.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        F = _random_unimodular(rng)
        expected = 0.5 * p.mu * (np.sum(F * F) - 3.0)
        assert abs(bulk_energy(F, p) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_bulk_energy_minimizes_entropic():
    # Minimum over directors, attained at the top left singular vector.
    rng = np.random.default_rng(3)
    p = MaterialParams(mu=2.0, r=8.0)
    for _ in range(200):
        F = _random_unimodular(rng)
        w3 = bulk_energy(F, p)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        assert w3 <= entropic_energy(F, n, p) + 1e-10
        U, _, _ = np.linalg.svd(F)
        assert abs(entropic_energy(F, U[:, 0], p) - w3) <= 1e-10


def test_bulk_energy_isotropy():
    rng = np.random.default_rng(4)
    p = MaterialParams(mu=2.0, r=8.0)
    for _ in range(300):
        F = _random_unimodular(rng)
        w = bulk_energy(F, p)
        Q1, Q2 = random_rotation(rng), random_rotation(rng)
        assert abs(bulk_energy(Q1 @ F @ Q2, p) - w) <= 1e-12 * max(1.0, abs(w))


def test_frank_energy_examples():
    p = MaterialParams(mu=1.0, r=2.0, kappa=2.0)
    assert frank_energy(np.zeros((3, 3)), np.eye(3), p) == 0.0
    p0 = MaterialParams(mu=1.0, r=2.0, kappa=0.0)
    assert frank_energy(np.ones((3, 3)), np.eye(3), p0) == 0.0
    unit = np.zeros((3, 3))
    unit[0, 0] = 1.0
    assert abs(frank_energy(unit, np.eye(3), p) - 1.0) <= 1e-15


def test_growth_sandwich():
    rng = np.random.default_rng(5)
    for r in (1.0, 2.0, 8.0, 100.0):
        p = MaterialParams(mu=2.0, r=r)
        c = growth_constant(p)
        assert c >= 1.0
        for _ in range(250):
            F = _random_unimodular(rng) * 1.0
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            w = entropic_energy(F, n, p)
            f2 = np.sum(F * F)
            assert f2 / c - c <= w + 1e-12
            assert w <= c * (f2 + 1.0) + 1e-12
