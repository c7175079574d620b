"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import targets
import workloads
from spans import Tracer, _union_ns

COUNTS = (".calls", ".elements", "cli.bytes_written", "relaxation.depth2_frac", "trace.absent_names")


@pytest.fixture(scope="module")
def nm():
    return run.load_nemem()


@pytest.fixture
def small_traces(monkeypatch):
    monkeypatch.setattr(workloads.Oracle, "trace_ops", 2)
    monkeypatch.setattr(workloads.Scan, "trace_ops", 3)
    monkeypatch.setattr(workloads.Pointwise, "trace_ops", 40)


def _bench_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    spec = _bench_json()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.CONTRACT)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: run.END_TO_END[k] for k in run.CONTRACT}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(nm, name):
    result, report = run.run(name, seed=5, seconds=0.2, trace=False, setup_samples=1)
    assert result["correct"] and result["attempted"] >= 1
    expected = {k: u for k, u in run.END_TO_END.items() if k != "gap_max" or name == "oracle"}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == expected
    assert list(result["metrics"]) == list(run.CONTRACT)
    assert all(v["value"] > 0 for k, v in result["metrics"].items())
    env = report["environment"]
    assert env["nproc"] >= 1 and env["seed"] == 5 and env["numpy"] == np.__version__


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_counts_repeat_for_a_seed(nm, small_traces, name):
    first, report = run.run(name, seed=9, seconds=1, trace=True)
    second, _ = run.run(name, seed=9, seconds=1, trace=True)
    units = {k: v["unit"] for k, v in first["metrics"].items()}
    assert units == run.per_layer_units()
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(COUNTS)}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    values = {k: v["value"] for k, v in first["metrics"].items()}
    assert values["trace.absent_names"] == 0 and values["verification.calls"] == 0
    if name == "oracle":
        busy = values["relaxation.relax_lamination.busy_s"]
        children = sum(
            values[f"{fn}.busy_s"]
            for fn in ("membrane.plane_energy_values", "algebra.singular_values", "algebra.svd32", "membrane.psi")
        )
        assert values["relaxation.self_s"] + children == pytest.approx(busy, rel=1e-6)
    else:
        assert values["relaxation.relax_lamination.calls"] == 0
    if name == "scan":
        assert values["cli.main.calls"] == 3 and values["cli.bytes_written"] > 0
        assert 0.0 <= values["cli.self_s"] <= values["cli.main.busy_s"]
    if name == "pointwise":
        assert values["microstructure.young_measure_for.calls"] == 40


def test_corrupted_pointwise_output_counts_as_failed(nm, monkeypatch):
    honest = nm.relaxed_energy

    def off_by_a_little(F, params):
        ev = honest(F, params)
        return dataclasses.replace(ev, energy=ev.energy + 1e-6)

    monkeypatch.setattr(nm, "relaxed_energy", off_by_a_little)
    result, report = run.run("pointwise", seed=2, seconds=0.2, trace=False, setup_samples=1)
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert report["metrics"]["fail_frac"]["value"] == 1.0
    assert report["failures_by_check"]["pairing"] == result["attempted"]


def test_corrupted_scan_output_counts_as_failed(nm, monkeypatch):
    honest = nm.cli.psi
    monkeypatch.setattr(nm.cli, "psi", lambda lam, dlt, params: honest(lam, dlt, params) * (1 + 1e-9))
    result, report = run.run("scan", seed=2, seconds=0.2, trace=False, setup_samples=1)
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert report["failures_by_check"] == {"energy": result["attempted"]}


def test_oracle_gap_miss_shows_in_fail_frac_but_is_not_a_wrong_output(nm, tmp_path):
    w = workloads.Oracle(nm, 4, str(tmp_path))
    res = w.op(0)
    assert w.check(0, res) == []
    assert w.check(0, dataclasses.replace(res, value=res.value + 1e-2)) == ["gap-upper", "witness-pairing"]
    tally = run.Tally(w)
    tally.add(["gap-upper"], None)
    tally.add([], None)
    assert (tally.attempted, tally.missed, tally.failed, tally.accuracy_misses) == (2, 1, 0, 1)
    tally.add(["gap-upper", "witness-pairing"], None)
    assert (tally.missed, tally.failed, tally.accuracy_misses) == (2, 1, 1)
    assert tally.by_check == {"gap-upper": 2, "witness-pairing": 1}


def test_check_that_cannot_run_exits_nonzero(nm, monkeypatch, capsys):
    monkeypatch.setattr(nm, "relaxed_energy", lambda F, params: None)
    code = run.main(["--workload", "pointwise", "--seed", "1", "--seconds", "0.1", "--trace", "0"])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and "could not run" in err


def test_without_the_library_the_command_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_inputs_follow_the_seed_and_keep_near_isotropic_liquid_targets():
    a = targets.region_targets(3, 2)
    b = targets.region_targets(3, 2)
    c = targets.region_targets(4, 2)
    assert all(np.array_equal(x["F"], y["F"]) for x, y in zip(a, b))
    assert not any(np.array_equal(x["F"], y["F"]) for x, y in zip(a, c))
    assert ("L", 1.01) in {(t["region"], t["r"]) for t in a}
    assert len(a) == 2 * len(targets.cells()) == 30


def test_misclassified_target_aborts_setup(nm):
    items = targets.region_targets(0, 1)
    items[0] = dict(items[0], region="S")
    params = {r: nm.MaterialParams(mu=targets.MU, r=r) for r in targets.R_VALUES}
    with pytest.raises(workloads.SetupError, match="classifies as L"):
        workloads._check_regions(nm, items, params)


def test_reference_matches_the_library_off_the_grid(nm):
    rng = np.random.default_rng(0)
    lam = rng.uniform(0.2, 4.0, 500)
    dlt = lam * lam * rng.uniform(0.01, 1.0, 500)
    for r in targets.R_VALUES:
        params = nm.MaterialParams(mu=targets.MU, r=r)
        tags = targets.region_of(lam, dlt, r)
        assert list(tags) == [nm.classify(x, y, params).value for x, y in zip(lam, dlt)]
        np.testing.assert_allclose(targets.psi_ref(lam, dlt, r), nm.psi(lam, dlt, params), rtol=1e-12, atol=1e-12)


def test_tracer_reports_absent_names_and_restores(nm):
    original = nm.svd32
    with Tracer({"algebra.svd32": None, "membrane.no_such_function": None}) as tracer:
        assert nm.svd32 is not original and nm.membrane.svd32 is not original
        with tracer.op(0):
            nm.relaxed_energy(np.eye(3, 2), nm.MaterialParams(mu=1.0, r=2.0))
    assert tracer.absent == ["membrane.no_such_function"]
    assert nm.svd32 is original and nm.membrane.svd32 is original
    assert [s[1] for s in tracer.spans] == [0]


def test_union_of_overlapping_child_spans():
    spans = [(0, 0, 10, 30, None, 0, 0), (1, 0, 20, 40, None, 0, 0), (2, 0, 50, 60, None, 0, 0)]
    assert _union_ns(0, 100, spans) == 40
    assert _union_ns(25, 55, spans) == 20


def test_latencies_are_scaled_by_the_local_calibration():
    cal_t = [0.5, 1.5, 10.5, 11.5]
    cal_v = [0.1] * 2 + [0.2] * 2
    assert run.speed_factors(cal_t, cal_v, 0.1) == pytest.approx([1.0, 1.0, 0.5, 0.5, 0.5])


def test_samples_keep_fixed_memory_and_spread_over_the_run():
    samples = run.Samples(cap=8)
    for op in range(40):
        if op and op % 10 == 0:
            samples.spent.append(0.0)
        samples.add(float(op), op // 10)
    assert (samples.n, samples.stride) == (5, 8)
    assert samples.wall[: samples.n].tolist() == [0.0, 8.0, 16.0, 24.0, 32.0]
    assert samples.interval[: samples.n].tolist() == [0, 0, 1, 2, 3]
    assert samples.spent == [sum(range(k, k + 10)) for k in (0, 10, 20, 30)]
    assert samples.ops == 40 and len(samples.wall) == 8
