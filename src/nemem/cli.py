"""Command-line front end.

Subcommands: energy | region | stress | laminate | relax | scan | verify
| energy3d.  Structured output is JSON (stdout) or CSV (scan files);
floats are printed with shortest round-trip precision.  Exit codes:
0 ok, 2 usage/parse error, 3 domain error, 4 I/O error.  JSON never
holds a bare ``Infinity`` or ``NaN``: non-finite floats are written as
the strings ``"inf"``, ``"-inf"`` and ``"nan"``.  The material flags are
``--r`` and ``--mu``.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .algebra import svd32
from .constitutive import MaterialParams, bulk_energy, entropic_energy
from .membrane import (
    _INVARIANT_MAX,
    DomainError,
    Region,
    classify,
    membrane_stress,
    principal_stresses,
    psi,
    region_tags,
)
from .microstructure import measure_to_json_dict, young_measure_for
from .relaxation import OracleConfig, relax_lamination
from .verification import DEFAULT_R_VALUES, run_suites

__all__ = ["main"]


def _finite_json(obj):
    # Non-finite floats become strings, so the text is standard JSON.
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, dict):
        return {key: _finite_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(value) for value in obj]
    return obj


def _finite_column(values):
    # _finite_json of a flat list of floats, strings and None, in one pass.
    return [repr(v) if v.__class__ is float and not math.isfinite(v) else v for v in values]


def _json_text(obj):
    return json.dumps(_finite_json(obj), allow_nan=False)


def _parse_matrix(text, rows, cols):
    out = []
    row_chunks = [chunk for chunk in text.split(";")]
    if len(row_chunks) != rows:
        raise ValueError(f"matrix needs {rows} rows separated by ';', got {len(row_chunks)}")
    for chunk in row_chunks:
        entries = chunk.split()
        if len(entries) != cols:
            raise ValueError(f"matrix row {chunk!r} needs {cols} entries")
        row = []
        for tok in entries:
            try:
                row.append(float(tok))
            except ValueError:
                raise ValueError(f"bad matrix entry {tok!r}") from None
        out.append(row)
    return np.array(out)


def _invariants(args, params):
    # Matrix input wins; otherwise the diagonal realization of the pair.
    # F is None for an unrealizable pair; each command decides what that means.
    if getattr(args, "F", None) is not None:
        F = _parse_matrix(args.F, 3, 2)
        sd = svd32(F)
        return F, sd.lamM, sd.delta, classify(sd.lamM, sd.delta, params)
    if args.lamM is None or args.delta is None:
        raise ValueError("need either --F or both --lamM and --delta")
    lam, dlt = args.lamM, args.delta
    region = classify(lam, dlt, params)  # rejects negative, non-finite and huge pairs
    if region is Region.INVALID:
        return None, lam, dlt, region
    F = np.array([[lam, 0.0], [0.0, dlt / lam if lam > 0 else 0.0], [0.0, 0.0]])
    return F, lam, dlt, region


def _unrealizable(lam, dlt):
    return DomainError(f"(lamM, delta) = ({lam}, {dlt}) is not realizable by a 3x2 matrix")


def _cmd_energy(args):
    params = MaterialParams(mu=args.mu, r=args.r)
    _, lam, dlt, region = _invariants(args, params)
    if region is Region.INVALID:
        raise _unrealizable(lam, dlt)
    energy = psi(lam, dlt, params)
    if args.normalized:
        energy = energy / (0.5 * params.mu)
    print(_json_text({"region": region.value, "energy": energy}))
    return 0


def _cmd_region(args):
    params = MaterialParams(mu=args.mu, r=args.r)
    _, _, _, region = _invariants(args, params)
    print(_json_text({"region": region.value}))
    return 0


def _cmd_stress(args):
    params = MaterialParams(mu=args.mu, r=args.r)
    F, lam, dlt, _ = _invariants(args, params)
    if F is None:
        raise _unrealizable(lam, dlt)
    state = membrane_stress(F, params)
    out = {
        "region": state.region.value,
        "classification": state.classification,
        "sigma": state.sigma.tolist(),
        "principal_values": list(state.principal_values),
        "principal_dirs": [d.tolist() for d in state.principal_dirs],
    }
    print(_json_text(out))
    return 0


def _cmd_energy3d(args):
    params = MaterialParams(mu=args.mu, r=args.r)
    F = _parse_matrix(args.F, 3, 3)
    if args.n is not None:
        n = _parse_matrix(args.n, 1, 3)[0]
        energy = entropic_energy(F, n, params)
    else:
        energy = bulk_energy(F, params)
    print(_json_text({"energy": energy}))
    return 0


def _cmd_laminate(args):
    params = MaterialParams(mu=args.mu, r=args.r)
    F = _parse_matrix(args.F, 3, 2)
    nu = young_measure_for(F, params)
    print(_json_text(measure_to_json_dict(nu)))
    return 0


def _cmd_relax(args):
    params = MaterialParams(mu=args.mu, r=args.r)
    F = _parse_matrix(args.F, 3, 2)
    res = relax_lamination(F, params, OracleConfig(depth=args.depth))
    out = {
        "value": res.value,
        "closed_form": res.closed_form,
        "gap": res.gap,
        "best_measure": measure_to_json_dict(res.best_measure),
    }
    print(_json_text(out))
    return 0


def _cell_texts(col):
    # The cells of an object column of floats and None, each distinct float
    # formatted once: keyed by its bits, so that -0.0 keeps its own
    # spelling, and a missing cell (None) empty.
    present = np.not_equal(col, None)
    keys, index = np.unique(np.where(present, col, 0.0).astype(float).view(np.int64), return_inverse=True)
    index[~present] = len(keys)
    texts = list(map(repr, keys.view(float).tolist())) + [""]
    return np.array(texts, dtype=object)[index].tolist()


def _csv_rows(lam_axis, dlt_axis, tags, energy, s1, s2):
    # The scan's CSV lines, lamM outer and delta inner, built by columns so
    # that each grid value, and each distinct energy and stress, is
    # formatted once.  tolist() gives Python floats, whose repr is the
    # shortest round trip; a missing cell (None) is empty.
    lam_text = list(map(repr, lam_axis.tolist()))
    dlt_text = list(map(repr, dlt_axis.tolist()))
    columns = (
        [text for text in lam_text for _ in dlt_text],
        dlt_text * len(lam_text),
        tags.tolist(),
        *map(_cell_texts, (energy, s1, s2)),
    )
    return (",".join(row) + "\n" for row in zip(*columns))


def _cmd_scan(args):
    params = MaterialParams(mu=args.mu, r=args.r)
    for name, lo, hi, count in (
        ("lamM", args.lamM_min, args.lamM_max, args.lamM_count),
        ("delta", args.delta_min, args.delta_max, args.delta_count),
    ):
        for end, value in (("min", lo), ("max", hi)):
            if not value <= _INVARIANT_MAX:
                raise ValueError(
                    f"--{name}-{end} must be finite and at most {_INVARIANT_MAX:g}, got {value}"
                )
        if count < 2:
            raise ValueError(f"--{name}-count must be >= 2")
        if not (0.0 <= lo < hi):
            raise ValueError(f"--{name} range needs 0 <= min < max")
    lam_axis = np.linspace(args.lamM_min, args.lamM_max, args.lamM_count)
    dlt_axis = np.linspace(args.delta_min, args.delta_max, args.delta_count)
    lam, dlt = np.meshgrid(lam_axis, dlt_axis, indexing="ij")
    lam, dlt = lam.ravel(), dlt.ravel()  # row-major: lamM outer, delta inner

    tags = region_tags(lam, dlt, params)
    energy = np.where(tags != Region.INVALID.value, psi(lam, dlt, params), None)
    # Stress is defined on the open set 0 < delta < lamM^2 only.
    stressed = (0.0 < dlt) & (dlt < lam * lam)
    s1 = np.where(stressed, 0.0, None)
    s2 = s1.copy()
    for region in (Region.M, Region.W, Region.S):
        cells = stressed & (tags == region.value)
        s1[cells], s2[cells] = principal_stresses(lam[cells], dlt[cells], region, params)

    try:
        with open(args.out, "w", newline="") as fh:
            if args.format == "csv":
                fh.write("lamM,delta,region,energy,sigma1,sigma2\n")
                fh.writelines(_csv_rows(lam_axis, dlt_axis, tags, energy, s1, s2))
            else:
                # Non-finite floats are converted once per column, not per cell.
                keys = ("lamM", "delta", "region", "energy", "sigma1", "sigma2")
                columns = (_finite_column(col.tolist()) for col in (lam, dlt, tags, energy, s1, s2))
                records = [dict(zip(keys, row)) for row in zip(*columns)]
                fh.write(json.dumps(records, allow_nan=False) + "\n")
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    return 0


def _cmd_verify(args):
    r_values = args.r if args.r else list(DEFAULT_R_VALUES)
    params_list = [MaterialParams(mu=args.mu, r=r) for r in r_values]
    try:
        reports = run_suites(
            args.suite,
            params_list,
            grid_n=args.grid,
            n_samples=args.samples,
            seed=args.seed,
        )
    except KeyError as exc:
        raise ValueError(str(exc)) from None
    ok = True
    for rep in reports:
        print(_json_text(rep.to_json_dict()))
        ok = ok and rep.passed
    return 0 if ok else 1


def _add_material_flags(p):
    p.add_argument("--r", type=float, default=1.0, help="chain anisotropy (>= 1)")
    p.add_argument("--mu", type=float, default=1.0, help="shear modulus (> 0)")


@functools.cache
def _build_parser():
    # Nothing changes the parser after it is built, so one per process
    # serves every main call.
    parser = argparse.ArgumentParser(
        prog="nemem",
        description="Effective energy, stress, and microstructure of nematic "
        "elastomer membranes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("energy", _cmd_energy), ("region", _cmd_region), ("stress", _cmd_stress)):
        p = sub.add_parser(name)
        p.add_argument("--F", default=None, help="3x2 matrix 'a b; c d; e f'")
        p.add_argument("--lamM", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        _add_material_flags(p)
        if name == "energy":
            p.add_argument(
                "--normalized", action="store_true", help="report energy in units of mu/2"
            )
        p.set_defaults(fn=fn)

    p = sub.add_parser("energy3d")
    p.add_argument("--F", required=True, help="3x3 matrix 'a b c; d e f; g h i'")
    p.add_argument("--n", default=None, help="director 'x y z' (omit to minimize)")
    _add_material_flags(p)
    p.set_defaults(fn=_cmd_energy3d)

    p = sub.add_parser("laminate")
    p.add_argument("--F", required=True, help="3x2 matrix 'a b; c d; e f'")
    _add_material_flags(p)
    p.set_defaults(fn=_cmd_laminate)

    p = sub.add_parser("relax")
    p.add_argument("--F", required=True, help="3x2 matrix 'a b; c d; e f'")
    _add_material_flags(p)
    p.add_argument("--depth", type=int, default=2, choices=(1, 2), help="lamination depth (1 or 2)")
    p.set_defaults(fn=_cmd_relax)

    p = sub.add_parser("scan")
    p.add_argument("--lamM-min", type=float, required=True)
    p.add_argument("--lamM-max", type=float, required=True)
    p.add_argument("--lamM-count", type=int, required=True)
    p.add_argument("--delta-min", type=float, required=True)
    p.add_argument("--delta-max", type=float, required=True)
    p.add_argument("--delta-count", type=int, required=True)
    _add_material_flags(p)
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("verify")
    p.add_argument(
        "--suite",
        required=True,
        help="appendixA | stress | envelope | frame | all",
    )
    p.add_argument("--r", type=float, action="append", default=None)
    p.add_argument("--mu", type=float, default=2.0)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
