"""The three closed-loop workloads: what one op is and how its output is checked.

Each workload is built from the imported ``nemem`` package and a seed,
and calls the library only through attributes of that package looked
up at call time, so the tracer's rebinding is seen.  ``check`` returns
the names of the checks an output failed (empty when it passed); a
check that cannot run at all raises.
"""

import functools
import os

import numpy as np

import targets
from targets import MU, R_VALUES, STRESS_LABELS


class SetupError(RuntimeError):
    """The workload's inputs are not what the workload promises."""


class Workload:
    unit = "ops"
    # Threads an op runs on; the benchmark calibrates its speed on as many.
    pool_width = 1
    # Checks whose miss is an accuracy shortfall rather than a wrong output.
    accuracy_checks = frozenset()

    def __init__(self, nm):
        self.nm = nm
        self.params = {r: nm.MaterialParams(mu=MU, r=r) for r in R_VALUES}
        self.reset_counters()

    def reset_counters(self):
        self.gap_max = -np.inf
        self.solves = 0
        self.depth2_solves = 0
        self.bytes_written = 0

    def work(self, i):
        """Units of work op ``i`` performs (for throughput)."""
        return 1


def _check_regions(nm, items, params):
    # Every generated target must classify into the region it was drawn for.
    for k, t in enumerate(items):
        sd = nm.svd32(t["F"])
        tag = nm.classify(sd.lamM, sd.delta, params[t["r"]]).value
        if tag != t["region"]:
            raise SetupError(
                f"target {k} drawn for region {t['region']} at r = {t['r']} "
                f"(lamM = {t['lamM']!r}, delta = {t['delta']!r}) classifies as {tag}"
            )


class Oracle(Workload):
    """One ``relax_lamination`` solve per op with the default oracle config."""

    unit = "solves"
    accuracy_checks = frozenset({"gap-upper"})
    per_cell = 12
    trace_ops = 15

    def __init__(self, nm, seed, workdir):
        super().__init__(nm)
        self.items = targets.region_targets(seed, self.per_cell)
        _check_regions(nm, self.items, self.params)

    def op(self, i):
        t = self.items[i % len(self.items)]
        return self.nm.relax_lamination(t["F"], self.params[t["r"]], self.nm.OracleConfig())

    def check(self, i, res):
        t = self.items[i % len(self.items)]
        params = self.params[t["r"]]
        gap = res.value - float(targets.psi_ref(t["lamM"], t["delta"], t["r"]))
        fails = []
        if not gap >= -1e-9:
            fails.append("gap-lower")
        if not gap <= 5e-3:
            fails.append("gap-upper")
        pe = functools.partial(self.nm.plane_energy, params=params)
        if not abs(self.nm.measure_pairing(res.best_measure, pe) - res.value) <= 1e-12:
            fails.append("witness-pairing")
        self.gap_max = max(self.gap_max, gap)
        self.solves += 1
        self.depth2_solves += any(e["level"] == 2 for e in res.best_measure.tree)
        return fails


class Pointwise(Workload):
    """One material point per op: energy, stress, laminate and its pairing."""

    unit = "points"
    per_cell = 100
    trace_ops = 1500

    def __init__(self, nm, seed, workdir):
        super().__init__(nm)
        self.items = targets.region_targets(seed, self.per_cell)
        _check_regions(nm, self.items, self.params)

    def op(self, i):
        t = self.items[i % len(self.items)]
        nm, F, params = self.nm, t["F"], self.params[t["r"]]
        ev = nm.relaxed_energy(F, params)
        st = nm.membrane_stress(F, params)
        nu = nm.young_measure_for(F, params)
        paired = nm.measure_pairing(nu, functools.partial(nm.plane_energy, params=params))
        return ev, st, nu, paired

    def check(self, i, out):
        t = self.items[i % len(self.items)]
        ev, st, nu, paired = out
        F, region = t["F"], t["region"]
        fails = []
        bary = sum(w * np.asarray(G) for w, G in nu.atoms)
        if not np.max(np.abs(bary - F)) <= 1e-12 * max(1.0, np.linalg.norm(F)):
            fails.append("barycenter")
        if not abs(paired - ev.energy) <= 1e-10:
            fails.append("pairing")
        ref = float(targets.psi_ref(t["lamM"], t["delta"], t["r"]))
        if not abs(ev.energy - ref) <= 1e-12 * max(1.0, abs(ref)):
            fails.append("energy")
        if not min(st.principal_values) >= 0.0:
            fails.append("stress-sign")
        if (
            ev.region.value != region
            or st.region.value != region
            or st.classification != STRESS_LABELS[region]
        ):
            fails.append("region")
        return fails


class Scan(Workload):
    """One in-process ``nemem scan`` command per op, writing CSV."""

    unit = "cells"
    # The README's command scans 100x100 cells, 1.8-2.2 s on a 2-vCPU VM:
    # too few ops in a run for a tail, which needs 50 ops in 30 s for p80.
    # 40x40 gave as few as 55 when the machine ran slow.  32x32 takes about
    # 0.22 s, of which some 3 ms (1.4%) is the per-command cost of parsing,
    # the pool and the file; the rest is the per-cell loop.
    grid = (32, 32)
    windows = 16
    trace_ops = 8

    def __init__(self, nm, seed, workdir):
        super().__init__(nm)
        # The scan's default pool: cpu_count, capped at the usable cores.
        self.pool_width = len(os.sched_getaffinity(0))
        self.items = targets.scan_windows(seed, self.windows)
        self.out = os.path.join(workdir, "scan.csv")
        seen = set()
        for w in self.items:
            lam, dlt = self._grid(w)
            seen.update(np.unique(targets.region_of(lam, dlt, w["r"])))
        if seen != {"L", "M", "W", "S", "Invalid"}:
            raise SetupError(f"scan windows cover only the tags {sorted(seen)}")

    def _grid(self, w):
        lam = np.linspace(w["lamM_min"], w["lamM_max"], self.grid[0])
        dlt = np.linspace(w["delta_min"], w["delta_max"], self.grid[1])
        return np.meshgrid(lam, dlt, indexing="ij")

    def work(self, i):
        return self.grid[0] * self.grid[1]

    def op(self, i):
        if os.path.exists(self.out):
            os.remove(self.out)  # an op that writes nothing must not pass
        w = self.items[i % len(self.items)]
        argv = ["scan"]
        for flag, key, count in (("lamM", "lamM", self.grid[0]), ("delta", "delta", self.grid[1])):
            argv += [f"--{flag}-min", repr(w[key + "_min"]), f"--{flag}-max", repr(w[key + "_max"])]
            argv += [f"--{flag}-count", str(count)]
        argv += ["--r", repr(w["r"]), "--mu", repr(MU), "--out", self.out]
        return self.nm.cli.main(argv)

    def check(self, i, code):
        try:
            with open(self.out) as fh:
                text = fh.read()
            os.remove(self.out)
        except FileNotFoundError:
            text = None
        if code != 0:
            return ["exit-code"]
        if text is None:
            return ["no-output"]
        self.bytes_written += len(text.encode())
        w = self.items[i % len(self.items)]
        lam, dlt = (a.ravel() for a in self._grid(w))
        lines = text.splitlines()
        if lines[:1] != ["lamM,delta,region,energy,sigma1,sigma2"] or len(lines) != 1 + lam.size:
            return ["rows"]
        try:
            rows = [line.split(",") for line in lines[1:]]
            got_lam = np.array([float(row[0]) for row in rows])
            got_dlt = np.array([float(row[1]) for row in rows])
            tags = np.array([row[2] for row in rows])
            cols = [[row[k] for row in rows] for k in (3, 4, 5)]
            vals = [np.array([float(v) if v else np.nan for v in c]) for c in cols]
        except (ValueError, IndexError):
            return ["csv-parse"]
        fails = []
        if not (np.array_equal(got_lam, lam) and np.array_equal(got_dlt, dlt)):
            fails.append("grid")
        ref_tags = targets.region_of(lam, dlt, w["r"])
        if not np.array_equal(tags, ref_tags):
            fails.append("region")
        realizable = ref_tags != "Invalid"
        stressed = realizable & (dlt > 0.0) & (dlt < lam * lam)
        energy, s1, s2 = vals
        ref_e = targets.psi_ref(lam, dlt, w["r"])
        ref_s1, ref_s2 = targets.stress_ref(lam, dlt, w["r"])
        if not np.array_equal(~np.isnan(energy), realizable):
            fails.append("energy-empty")
        elif not _close(energy[realizable], ref_e[realizable]):
            fails.append("energy")
        if not (np.array_equal(~np.isnan(s1), stressed) and np.array_equal(~np.isnan(s2), stressed)):
            fails.append("stress-empty")
        elif not (_close(s1[stressed], ref_s1[stressed]) and _close(s2[stressed], ref_s2[stressed])):
            fails.append("stress")
        return fails


def _close(got, ref):
    return bool(np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))))


WORKLOADS = {"oracle": Oracle, "scan": Scan, "pointwise": Pointwise}
