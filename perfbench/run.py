"""Benchmark of the nemem library: three closed-loop workloads, one process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {oracle,scan,pointwise} --seed N \
        --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout; nothing is
installed.  A single caller issues each op after the previous one
returned; the only extra threads are those ``nemem scan`` starts itself.

* ``--trace 0`` runs ops for ``--seconds`` seconds with tracing off and
  reports the end-to-end metrics.  Latency is the time of one op;
  throughput is units of work (solves, grid cells, material points) per
  second of op time.  ``setup_s`` (import nemem, generate and check the
  inputs, one warm-up op) is the median over this process and four fresh
  interpreters.  The tail is the highest of p50/p80/p95 with at least
  ten samples beyond it.
* ``--trace 1`` runs a fixed op list twice, untraced and then traced, so
  counts repeat exactly for a seed, and reports the per-layer metrics
  plus ``trace.overhead_frac`` (traced / untraced op time - 1).  Span
  times are wall-clock.

Times are reported at a reference machine speed.  On a shared virtual
machine the CPU's speed drifts by tens of percent over minutes, which
would swamp the differences between two versions of the library.  So a
fixed calibration loop (float arithmetic and small numpy calls) is timed
between ops, and each op's time is multiplied by the loop's reference
time over the median calibration time within CAL_WINDOW_S of it; set-up
times are scaled by a calibration taken right after the set-up.  A
workload whose ops run on a thread pool (``scan``) is calibrated on a
pool of the same width instead.  The wall-clock
values are kept in the report under ``wall``.

Every op's output is checked.  The result's ``failed`` counts ops that
raised or returned a wrong output, and ``correct`` is false when there is
any.  The oracle's gap upper bound (5e-3) is an accuracy target rather
than a correctness check: a solve above it still returns a witnessed
upper bound, only a coarser one.  Such a miss is not counted in
``failed``; it is counted in the report's ``fail_frac`` (ops that missed
any check / ops attempted), in ``accuracy_misses`` and by check name,
and ``gap_max`` shows its size.  The seed commit's oracle misses it on
some r = 1.01 deep-L targets, so ``fail_frac`` there is not zero.

The last line of stdout is the result object; the line before it is a
report with every metric, the environment and the failures by check.
Spans and reports are written under ``perfbench/out/``.  Exit codes: 0
done, 2 inputs or library unusable, 3 an output check could not run.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 5
# Calibration cadence, smoothing window and the calibration times that
# define the reference speed (about each loop's time on a 2-vCPU VM).
CAL_EVERY_S = 0.05
CAL_WINDOW_S = 2.0
CAL_REF_S = 3e-4
POOL_CAL_REF_S = 1e-2
# Percentiles the tail may report: the highest one with at least ten
# samples beyond it is used.  p99 and p99.9 are left out: on a shared
# machine they measure scheduler noise, not the library (over ten seeds
# the pointwise p99 spread 0.09-0.12 of its median, its p95 about 0.06).
TAIL_LADDER = (50.0, 80.0, 95.0)
# Per-op latency samples kept in memory (see Samples).
SAMPLE_CAP = 1 << 16

# End-to-end metrics, with units.  The result line carries the ones every
# workload has (CONTRACT); fail_frac may read 0 and gap_max exists only for
# the oracle, so both go in the report line.
END_TO_END = {
    "setup_s": "s",
    "throughput": "ops/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "fail_frac": "ratio",
    "gap_max": "energy",
    "peak_rss_mb": "MiB",
}
CONTRACT = ("setup_s", "throughput", "latency_p50_s", "latency_tail_s", "peak_rss_mb")

PER_LAYER_FN = {
    "relaxation.relax_lamination": ("calls", "busy_s"),
    "membrane.plane_energy_values": ("calls", "elements", "busy_s", "ns_per_element"),
    "algebra.singular_values": ("calls", "elements", "busy_s", "ns_per_element"),
    "algebra.svd32": ("calls", "busy_s"),
    "membrane.classify": ("calls", "busy_s"),
    "membrane.psi": ("calls", "elements", "busy_s"),
    "membrane.membrane_stress": ("calls", "busy_s"),
    "membrane.relaxed_energy": ("calls", "busy_s"),
    "membrane.plane_energy": ("calls", "busy_s"),
    "cli.main": ("calls", "busy_s"),
    "microstructure.young_measure_for": ("calls", "busy_s"),
    "microstructure.measure_pairing": ("calls", "busy_s"),
}
SELF_MODULES = ("relaxation", "membrane", "microstructure", "cli", "algebra")
STAT_UNITS = {"calls": "count", "elements": "count", "busy_s": "s", "ns_per_element": "ns"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn, stats in PER_LAYER_FN.items():
        for stat in stats:
            units[f"{fn}.{stat}"] = STAT_UNITS[stat]
    for module in SELF_MODULES:
        units[f"{module}.self_s"] = "s"
    units.update(
        {
            "relaxation.depth2_frac": "ratio",
            "cli.bytes_written": "bytes",
            "verification.calls": "count",
            "trace.absent_names": "count",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


class CheckError(RuntimeError):
    """An output check could not run."""


def load_nemem():
    """Import ``nemem`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "nemem" / "__init__.py").is_file():
        raise ImportError(f"no nemem package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import nemem
    import nemem.cli  # noqa: F401  (the scan workload calls nemem.cli.main)

    if Path(nemem.__file__).resolve().parent != (src / "nemem").resolve():
        raise ImportError(f"nemem imported from {nemem.__file__}, not from {src}")
    return nemem


def set_up(name, seed, workdir):
    """Import the library, build the workload and run one warm-up op.

    Returns the workload and the seconds this took, at reference speed."""
    t0 = time.perf_counter()
    nm = load_nemem()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](nm, seed, workdir)
    _run_op(workload, 0)
    workload.reset_counters()
    seconds = time.perf_counter() - t0
    calibrate, ref = calibrator(workload)
    return workload, seconds * ref / statistics.median(calibrate() for _ in range(9))


def _run_op(workload, i, tracer=None):
    """Time op ``i`` and check its output.

    Returns ``(seconds, failed check names, error or None)``."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.op(i)
        else:
            with tracer.op(i):
                out = workload.op(i)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, ["raised"], f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        fails = workload.check(i, out)
    except Exception as exc:
        raise CheckError(f"op {i}: output check could not run: {type(exc).__name__}: {exc}")
    return dt, fails, None


class Tally:
    """Attempted ops; ops that missed any check (``missed``), of which
    those that raised or returned a wrong output (``failed``) and those
    that missed only an accuracy target (``accuracy_misses``); misses by
    check name."""

    def __init__(self, workload):
        self.accuracy = workload.accuracy_checks
        self.attempted = 0
        self.missed = 0
        self.failed = 0
        self.accuracy_misses = 0
        self.by_check = {}
        self.errors = []

    def add(self, fails, error):
        self.attempted += 1
        if fails:
            self.missed += 1
            if set(fails) <= self.accuracy:
                self.accuracy_misses += 1
            else:
                self.failed += 1
            for name in fails:
                self.by_check[name] = self.by_check.get(name, 0) + 1
        if error is not None and len(self.errors) < 5:
            self.errors.append(error)


def tail(latencies):
    """Highest ladder percentile with at least ten samples beyond it
    (nearest rank), as ``(percentile, value)``."""
    xs = sorted(latencies)
    n = len(xs)
    best = (50.0, xs[max(0, math.ceil(0.5 * n) - 1)])
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            best = (p, xs[rank - 1])
    return best


def setup_probe_times(name, seed, count):
    """Set-up seconds measured in ``count`` fresh interpreters."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _calibration_s(mats):
    # A fixed single-threaded mix of float arithmetic and small numpy calls,
    # the kind of work the library does; its time tracks the machine's speed.
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(2000):
        acc += math.sqrt(k + 0.5)
    for m in mats:
        acc += math.hypot(m[0, 0], m[1, 1]) + float((m.T @ m)[0, 1])
    return time.perf_counter() - t0


def _cal_mats():
    import numpy as np

    return np.random.default_rng(0).normal(size=(32, 3, 2))


def _spin(k):
    acc = 0.0
    for j in range(6000):
        acc += math.sqrt(j + k + 0.5)
    return acc


def _pool_calibration_s(width):
    # Pure-Python chunks on a fresh pool, about 10 ms in all, so that the
    # threads pass the GIL between cores as the scan pool's do.  A busy
    # sibling core slows this and the scan alike, while the one-thread loop
    # does not see it: over six seeds at such a time, scan times scaled by
    # the one-thread loop spread 0.18 of their median, by this one 0.06-0.09.
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=width) as pool:
        list(pool.map(_spin, range(12)))
    return time.perf_counter() - t0


def calibrator(workload):
    """The calibration timer that tracks the speed ``workload``'s ops see,
    and its reference time."""
    if workload.pool_width > 1:
        return (lambda: _pool_calibration_s(workload.pool_width)), POOL_CAL_REF_S
    mats = _cal_mats()
    return (lambda: _calibration_s(mats)), CAL_REF_S


class Samples:
    """Per-op wall latencies, each with the calibration interval it ran in,
    in fixed memory so that peak RSS does not grow with the op count.

    The arrays are allocated and written up front.  When they are full,
    every other sample is dropped and from then on only every
    ``stride``-th op is kept, so the kept ops stay evenly spread over the
    run.  ``spent`` sums the wall time of every op per interval."""

    def __init__(self, cap=SAMPLE_CAP):
        import numpy as np

        self.wall = np.full(cap, np.nan)
        self.interval = np.full(cap, -1, dtype=np.int32)
        self.n = 0
        self.stride = 1
        self.ops = 0
        self.spent = [0.0]

    def add(self, dt, interval):
        if self.ops % self.stride == 0:
            if self.n == len(self.wall):
                half = self.n // 2
                self.wall[:half] = self.wall[::2]
                self.interval[:half] = self.interval[::2]
                self.n, self.stride = half, 2 * self.stride
            self.wall[self.n] = dt
            self.interval[self.n] = interval
            self.n += 1
        self.ops += 1
        self.spent[interval] += dt


def measure(workload, seconds):
    """Closed loop for ``seconds`` seconds.  Between ops, at most every
    CAL_EVERY_S, the calibration loop is timed; an op belongs to the
    interval that ends with the first calibration after it.  Returns the
    samples, calibration times and values, units, the tally and the peak
    RSS in MiB, read before any post-processing."""
    calibrate, ref = calibrator(workload)
    tally = Tally(workload)
    samples = Samples()
    cal_t, cal_v = [], []
    units = 0
    deadline = time.perf_counter() + seconds
    next_cal = 0.0
    i = 1  # op 0 was the warm-up
    while True:
        dt, fails, error = _run_op(workload, i)
        samples.add(dt, len(cal_v))
        units += workload.work(i)
        tally.add(fails, error)
        i += 1
        now = time.perf_counter()
        if now >= next_cal:
            cal_t.append(now)
            cal_v.append(calibrate())
            samples.spent.append(0.0)
            next_cal = now + CAL_EVERY_S
        if now >= deadline:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            return samples, cal_t, cal_v, ref, units, tally, peak_mb


def speed_factors(cal_t, cal_v, ref):
    """Factors that take each calibration interval's times to reference
    speed: ``ref`` over the median calibration time within CAL_WINDOW_S
    of the calibration that ends the interval.  Ops after the last
    calibration get the last factor."""
    import numpy as np

    cal_t, cal_v = np.asarray(cal_t), np.asarray(cal_v)
    lo = np.searchsorted(cal_t, cal_t - CAL_WINDOW_S)
    hi = np.searchsorted(cal_t, cal_t + CAL_WINDOW_S, side="right")
    factor = ref / np.array([np.median(cal_v[a:b]) for a, b in zip(lo, hi)])
    return np.append(factor, factor[-1])


def _time_metrics(latencies, total_s, units):
    pct, tail_value = tail(latencies)
    return pct, {
        "throughput": units / total_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
    }


def end_to_end(name, workload, seconds, setup_times):
    samples, cal_t, cal_v, ref, units, tally, peak_mb = measure(workload, seconds)
    factor = speed_factors(cal_t, cal_v, ref)
    wall = samples.wall[: samples.n]
    scaled = (wall * factor[samples.interval[: samples.n]]).tolist()
    pct, timed = _time_metrics(scaled, float(factor @ samples.spent), units)
    metrics = {
        "setup_s": statistics.median(setup_times),
        **timed,
        "fail_frac": tally.missed / tally.attempted,
        "peak_rss_mb": peak_mb,
    }
    if name == "oracle":
        metrics["gap_max"] = workload.gap_max
    details = {
        "latencies_s": wall.tolist(),
        "samples": samples.n,
        "sample_stride": samples.stride,
        "tail_percentile": pct,
        "throughput_unit": f"{workload.unit}/s",
        "setup_samples_s": setup_times,
        "calibration_s": statistics.median(cal_v),
        "wall": _time_metrics(wall.tolist(), sum(samples.spent), units)[1],
    }
    units_of = {k: END_TO_END[k] for k in metrics}
    return metrics, units_of, tally, details


def traced(workload):
    """Per-layer metrics over the fixed op list.

    Each op runs untraced, for timing only, and then traced and checked,
    so drift in machine speed cancels out of trace.overhead_frac."""
    from spans import Tracer

    tracer = Tracer()
    tally = Tally(workload)
    untraced_s = traced_s = 0.0
    n = workload.trace_ops
    for i in range(n):
        t0 = time.perf_counter()
        try:
            workload.op(i)
        except Exception:
            pass  # the traced run of the same op records the failure
        untraced_s += time.perf_counter() - t0
        with tracer:
            dt, fails, error = _run_op(workload, i, tracer)
        traced_s += dt
        tally.add(fails, error)
    per_fn, self_s = tracer.stats()
    metrics = {}
    for fn, stats in PER_LAYER_FN.items():
        row = per_fn.get(fn, {"calls": 0, "busy_s": 0.0, "elements": 0})
        for stat in stats:
            if stat == "ns_per_element":
                metrics[f"{fn}.{stat}"] = row["busy_s"] * 1e9 / row["elements"] if row["elements"] else 0.0
            else:
                metrics[f"{fn}.{stat}"] = row[stat]
    for module in SELF_MODULES:
        metrics[f"{module}.self_s"] = self_s.get(module, 0.0)
    metrics["relaxation.depth2_frac"] = workload.depth2_solves / workload.solves if workload.solves else 0.0
    metrics["cli.bytes_written"] = workload.bytes_written
    metrics["verification.calls"] = sum(
        row["calls"] for fn, row in per_fn.items() if fn.startswith("verification.")
    )
    metrics["trace.absent_names"] = len(tracer.absent)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    details = {"ops": n, "absent": tracer.absent, "untraced_s": untraced_s, "traced_s": traced_s}
    return metrics, per_layer_units(), tally, details, tracer


def environment(seed):
    import numpy

    import nemem.cli as cli

    threads = cli._thread_count() if hasattr(cli, "_thread_count") else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "NEMEM_THREADS": os.environ.get("NEMEM_THREADS"),
        "scan_threads": threads if threads is not None else "no thread pool",
    }


def git_commit():
    """Commit of the checkout, or ``None`` when it is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cap_threads():
    """Never let ``nemem scan`` ask for more threads than usable cores."""
    usable = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > usable:
        try:
            asked = int(os.environ.get("NEMEM_THREADS", "0"))
        except ValueError:
            asked = 0
        if asked <= 0 or asked > usable:
            os.environ["NEMEM_THREADS"] = str(usable)


def run(name, seed, seconds, trace, setup_samples=SETUP_SAMPLES):
    """Run one workload; returns ``(result, report)``."""
    cap_threads()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as workdir:
        workload, own_setup = set_up(name, seed, workdir)
        if trace:
            metrics, units, tally, details, tracer = traced(workload)
            trace_path = OUT / f"spans-{name}-seed{seed}.json"
            tracer.write(trace_path)
            details["spans_file"] = str(trace_path.relative_to(ROOT))
        else:
            probes = setup_probe_times(name, seed, setup_samples - 1)
            metrics, units, tally, details = end_to_end(name, workload, seconds, [own_setup] + probes)
    shown = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": shown if trace else {k: shown[k] for k in CONTRACT},
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metrics": shown,
        "environment": environment(seed),
        "accuracy_misses": tally.accuracy_misses,
        "failures_by_check": tally.by_check,
        "errors": tally.errors,
        **details,
    }
    with open(OUT / f"report-{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"report": report, "result": result}, fh)
    report.pop("latencies_s", None)  # kept in the file only
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("oracle", "scan", "pointwise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        if args.setup_probe:
            with tempfile.TemporaryDirectory(prefix="probe-", dir=OUT) as workdir:
                print(repr(set_up(args.workload, args.seed, workdir)[1]))
            return 0
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    except CheckError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:  # SetupError and failed set-up probes
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
