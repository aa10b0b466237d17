"""Command-line front end: residual bounds, coefficient optimization, and
figure-data reproduction.

Subcommands
    bounds     distance table and residual series for a scheme or array file
    optimize   run an optimizer (fh | s | ms | scheme) and dump coefficients
    reproduce  regenerate figure/table data bundles

Each subcommand takes only the flags it reads, besides `bounds --seed`,
which is recorded and draws nothing, and `optimize --mode scheme`'s
`--seed` and `--restarts`, which are accepted and not recorded; `--kind`
with another mode is an input error.  Every CSV gets a JSON `.config.json`
sidecar with the parsed flags and the command; a `reproduce` target records
the horizon `N` it ran, the restarts of its optimizers, and `seed` only
where it draws (fig3, fig5, lower-bounds).  Identical
command plus seed gives byte-identical CSVs and array JSON, and sidecars
that differ only in the `wall_time` that `optimize` records.  Exit codes:
0 success, 1 input error, 2 certification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .distances import build_distance_table, halpern_residuals
from .halpern import harmonic_bound, optimal_recursion
from .operators import inf_f, km_l1_residuals, shift_linf_residuals
from .optimize import (OptimizerConfig, fit_slope, optimize_fixed_horizon,
                       optimize_scheme, optimize_sequential)
from .reporting import write_csv, write_sidecar
from .schemes import (SCHEME_PARAMS, SchemeError, SchemeSpec, TriangularArray,
                      build_rows, stepsize_formula)
from .witness import CertificationError, build_worst_case_witness

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERT = 2


class InputError(Exception):
    pass


def _rational(text):
    """The exact value of a numeral: 0.3 is 3/10, and p/q is read too.

    InputError for a float with no rational value (nan, inf) and for a zero
    denominator, ValueError for text that is no number.
    """
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"{text.strip()!r} divides by zero")
    except ValueError:
        float(text)
        raise InputError(f"{text.strip()!r} has no exact rational value")


def _no_rational(name):
    raise InputError(f"{name} has no exact rational value")


def _json_numbers(exact):
    """json.load keywords: under --exact every JSON number is read exactly."""
    return {"parse_float": Fraction, "parse_constant": _no_rational} if exact else {}


def _is_number(v):
    """A JSON number: int, float or Fraction, and not a bool."""
    return isinstance(v, (int, float, Fraction)) and not isinstance(v, bool)


def _parse_steps(text, N, exact):
    """A stepsize flag's values at 0..N: a formula name, a number or
    'constant:c' for every index, a comma list, or @file holding a JSON list.
    A list is taken as given.  With `exact` every value and formula is a
    Fraction.
    """
    number = _rational if exact else float
    if text.startswith("@"):
        with open(text[1:]) as fh:
            steps = json.load(fh, **_json_numbers(exact))
        if not isinstance(steps, list) or not all(map(_is_number, steps)):
            raise InputError(f"{text[1:]}: expected a JSON list of numbers")
        return tuple(steps)
    if "," in text:
        return tuple(number(t) for t in text.split(","))
    if text == "optimal":
        text = "optimal-recursion"
    if text.startswith("constant:"):
        return (number(text.split(":", 1)[1]),) * (N + 1)
    try:
        c = number(text)
    except ValueError:
        return tuple(map(stepsize_formula(text, exact), range(N + 1)))
    return (c,) * (N + 1)


def _load_array(path, N, exact):
    try:
        with open(path) as fh:
            doc = json.load(fh, **_json_numbers(exact))
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read array file {path}: {e}")
    rows = doc.get("rows") if isinstance(doc, dict) else doc
    if not isinstance(rows, list):
        raise InputError(f"{path}: expected a 'rows' key or a bare list of rows")
    if len(rows) < N + 1:
        raise InputError(f"{path}: --N {N} needs rows 0..{N}, the file has {len(rows)}")
    rows = rows[: N + 1]
    if not all(isinstance(r, list) and all(map(_is_number, r)) for r in rows):
        raise InputError(f"{path}: every row must be a list of numbers")
    return TriangularArray(rows)


def _scheme_array(args):
    """The rows of --scheme over 0..N; a stepsize flag the kind does not
    read is an input error."""
    given = {"alpha": args.alpha, "beta": args.beta}
    unread = [f"--{name}" for name, text in given.items()
              if text is not None and name not in SCHEME_PARAMS[args.scheme]]
    if unread:
        raise InputError(f"--scheme {args.scheme} reads no {' or '.join(unread)}")
    steps = {name + "s": _parse_steps(text, args.N, args.exact)
             for name, text in given.items() if text is not None}
    return build_rows(SchemeSpec(args.scheme, **steps), args.N)


def _config(args, unread=(), **extra):
    """Sidecar record: the parsed flags and `extra`, without the handler
    function, whose repr holds a per-process address, and without the
    flags named in `unread`, which the run accepts but does not read."""
    return {k: v for k, v in vars(args).items()
            if k != "func" and k not in unread} | extra


def _outpath(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write(args, name, header, rows, unread=(), **extra):
    """Write the CSV `name` under --out and its sidecar, the parsed flags
    but those in `unread`, and `extra`; returns the CSV's path."""
    path = _outpath(args, name)
    write_csv(path, header, rows)
    write_sidecar(path, _config(args, unread, **extra))
    return path


def cmd_bounds(args):
    if args.array:
        if any(v is not None for v in (args.scheme, args.alpha, args.beta)):
            raise InputError("--array takes no --scheme, --alpha or --beta")
        pi = _load_array(args.array, args.N, args.exact)
        pi.validate(args.exact)
    elif args.scheme:
        pi = _scheme_array(args)
    else:
        raise InputError("bounds needs --scheme or --array")
    table, plans = build_distance_table(pi, exact=args.exact,
                                        keep_plans=args.certify)
    certified = False
    if args.certify:
        build_worst_case_witness(pi, table=table, plans=plans)
        certified = True
    cert = "witness-verified" if certified else "unverified"
    path = _write(args, "bounds.csv", ["n", "R", "inv_R", "certificate"],
                  [[n, r, 1.0 / float(r) if r else float("inf"), cert]
                   for n, r in enumerate(table.residuals)], command="bounds")
    dpath = _write(args, "distance-table.csv", ["m", "n", "d"],
                   list(table.csv_rows()), command="bounds")
    print(f"wrote {path} and {dpath} (R_{table.horizon} = {float(table.residuals[-1]):.12g})")
    return EXIT_OK


def _free_stage_record(res):
    """Sidecar summary of a float free run's stages: how many kept the MS row
    as certified stationary and how many were searched, and the largest
    stationarity gap among the certified ones."""
    kinds = [kind for kind, _ in res.free_stages]
    gaps = [rho for kind, rho in res.free_stages if kind == "stationary"]
    return {"stationary": kinds.count("stationary"),
            "searched": kinds.count("searched"), "max_rho": max(gaps, default=None)}


def _optimize_scheme(args, cfg):
    """Scheme mode's search is deterministic: it reads neither --restarts
    nor --seed, which it accepts and leaves out of its sidecar."""
    if not args.kind:
        raise InputError("optimize --mode scheme needs --kind")
    if args.exact:
        raise InputError("optimize --mode scheme has no exact mode")
    return optimize_scheme(args.kind, args.N)


# the optimizer each --mode runs
OPTIMIZERS = {
    "fh": lambda args, cfg: optimize_fixed_horizon(args.N, cfg, exact=args.exact),
    "s": lambda args, cfg: optimize_sequential(args.N, cfg, monotone=False,
                                               exact=args.exact),
    "ms": lambda args, cfg: optimize_sequential(args.N, cfg, monotone=True,
                                                exact=args.exact),
    "scheme": _optimize_scheme,
}


def cmd_optimize(args):
    if args.kind is not None and args.mode != "scheme":
        raise InputError(f"--mode {args.mode} reads no --kind")
    res = OPTIMIZERS[args.mode](args, OptimizerConfig(restarts=args.restarts,
                                                      seed=args.seed))
    certified = False
    if args.certify:
        build_worst_case_witness(res.array)
        certified = True
    cert = "witness-verified" if certified else "unverified"
    rows = []
    for n, r in enumerate(res.values):
        rec = [n, r, 1.0 / float(r) if r else float("inf"), cert]
        for key in sorted(res.coefficients):
            seq = res.coefficients[key]
            rec.append(seq[n] if n < len(seq) else "")
        rows.append(rec)
    header = ["n", "R", "inv_R", "certificate"] + sorted(res.coefficients)
    extra = ({} if res.free_stages is None
             else {"free_stages": _free_stage_record(res)})
    path = _write(args, f"optimize-{args.mode}.csv", header, rows,
                  unread=("seed", "restarts") if args.mode == "scheme" else (),
                  command="optimize", wall_time=res.wall_time, **extra)
    apath = _outpath(args, f"optimize-{args.mode}-array.json")
    with open(apath, "w") as fh:
        json.dump({"rows": [[float(w) for w in r] for r in res.array.rows]},
                  fh, indent=2)
        fh.write("\n")
    print(f"wrote {path} (R_{args.N} = {float(res.values[-1]):.12g}, "
          f"{res.wall_time:.2f}s)")
    return EXIT_OK


def _reproduce_fig3(args):
    N = min(args.N, 30)
    cfg = OptimizerConfig(restarts=8, seed=args.seed)
    ms = optimize_sequential(N, cfg, monotone=True)
    s = optimize_sequential(N, cfg, monotone=False)
    fh_vals = [1.0]
    for n in range(1, min(6, N) + 1):
        fh_vals.append(float(optimize_fixed_horizon(n, cfg).values[-1]))
    rows = []
    for n in range(N + 1):
        rows.append([n, ms.values[n], 1.0 / ms.values[n],
                     s.values[n], 1.0 / s.values[n],
                     fh_vals[n] if n < len(fh_vals) else "",
                     1.0 / fh_vals[n] if n < len(fh_vals) else ""])
    path = _write(args, "fig3.csv",
                  ["n", "R_ms", "inv_R_ms", "R_s", "inv_R_s", "R_fh", "inv_R_fh"],
                  rows, command="reproduce", target="fig3", N=N,
                  restarts=cfg.restarts, free_stages=_free_stage_record(s),
                  slope_ms=fit_slope(range(20, N + 1),
                                     [1 / v for v in ms.values[20:]])
                  if N >= 25 else None)
    print(f"wrote {path}")


def _reproduce_fig4(args):
    N = min(args.N, 40)
    series = {}
    for kind in ("halpern", "km", "inertial-halpern", "inertial-km",
                 "km-halpern", "extra-km", "ishikawa"):
        series[kind] = optimize_scheme(kind, N).values
    rows = [[n] + [series[k][n] for k in series] for n in range(N + 1)]
    path = _write(args, "fig4.csv", ["n"] + [f"R_{k}" for k in series], rows,
                  unread=("seed",), command="reproduce", target="fig4", N=N)
    print(f"wrote {path}")


def _reproduce_fig5(args):
    cfg = OptimizerConfig(restarts=8, seed=args.seed)
    stages = [n for n in (5, 10, 15, 20) if n <= args.N] or [args.N]
    N = max(stages)
    res = optimize_sequential(N, cfg, monotone=True)
    rows = []
    for n in stages:
        for i, w in enumerate(res.array.rows[n]):
            rows.append([n, i, w])
    path = _write(args, "fig5.csv", ["n", "i", "pi"], rows,
                  command="reproduce", target="fig5", N=N,
                  restarts=cfg.restarts)
    print(f"wrote {path}")


def _reproduce_remarks(args):
    N = max(args.N, 20)
    betas = [n / (n + 2) for n in range(N + 1)]
    harmonic = halpern_residuals(betas)
    _, opt = optimal_recursion(N)
    rows = [[n, harmonic[n], float(harmonic_bound(n)), opt[n],
             harmonic[n] / opt[n]] for n in range(N + 1)]
    path = _write(args, "remarks-table.csv",
                  ["n", "R_harmonic", "closed_form", "R_opt", "ratio"], rows,
                  unread=("seed",), command="reproduce", target="remarks-table",
                  N=N)
    print(f"wrote {path}")


def _reproduce_lower_bounds(args):
    N = min(args.N, 50)
    rng = np.random.default_rng(args.seed)
    betas = [0.0] + [float(b) for b in rng.uniform(0, 1, N)]
    pi = build_rows(SchemeSpec("halpern", betas=tuple(betas)), N)
    linf = shift_linf_residuals(pi)
    alphas = [0.0] + [float(a) for a in rng.uniform(0, 1, N)]
    l1 = km_l1_residuals(alphas)
    rows = [[n, linf[n], 1.0 / (n + 1), l1[n], 1.0 / (n + 1) ** 0.5,
             float(inf_f(n)) if n >= 1 else ""] for n in range(N + 1)]
    path = _write(args, "lower-bounds.csv",
                  ["n", "shift_linf", "floor_linf", "km_l1", "floor_l1",
                   "inf_f"], rows, command="reproduce", target="lower-bounds",
                  N=N)
    print(f"wrote {path}")


# the figure or table each --target writes
REPRODUCE_TARGETS = {"fig3": _reproduce_fig3, "fig4": _reproduce_fig4,
                     "fig5": _reproduce_fig5, "remarks-table": _reproduce_remarks,
                     "lower-bounds": _reproduce_lower_bounds}


def cmd_reproduce(args):
    REPRODUCE_TARGETS[args.target](args)
    return EXIT_OK


def _horizon(text):
    """--N: an integer N >= 0."""
    try:
        N = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if N < 0:
        raise argparse.ArgumentTypeError(f"N must be >= 0, got {N}")
    return N


def make_parser():
    p = argparse.ArgumentParser(prog="mannrates",
                                description="Worst-case residual bounds for "
                                            "averaged fixed-point iterations")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--N", type=_horizon, default=20)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=".", help="output directory")

    def arithmetic(sp):
        sp.add_argument("--exact", action="store_true",
                        help="exact rational arithmetic (small N only)")
        sp.add_argument("--certify", action="store_true",
                        help="build and verify the worst-case witness")

    b = sub.add_parser("bounds", help="distance table and residual series")
    b.add_argument("--scheme", choices=SCHEME_PARAMS)
    b.add_argument("--alpha")
    b.add_argument("--beta")
    b.add_argument("--array", help="JSON file with explicit rows")
    common(b)
    arithmetic(b)
    b.set_defaults(func=cmd_bounds)

    o = sub.add_parser("optimize", help="run a coefficient optimizer")
    o.add_argument("--mode", required=True, type=str.lower, choices=OPTIMIZERS,
                   help="scheme mode's search is deterministic: it reads "
                        "neither --restarts nor --seed")
    o.add_argument("--kind", choices=SCHEME_PARAMS, help="read by --mode scheme only")
    o.add_argument("--restarts", type=int, default=32,
                   help="starts of the joint search (--mode fh) and of a "
                        "free stage's search (--mode s, at least 2); an MS "
                        "stage runs max(2, R) starts up to stage 20 and "
                        "max(2, min(R, 8)) from stage 21 on, so --restarts 1 "
                        "runs 2 and the default 32 runs 8 from stage 21 on")
    common(o)
    arithmetic(o)
    o.set_defaults(func=cmd_optimize)

    r = sub.add_parser("reproduce", help="regenerate figure/table data")
    r.add_argument("--target", required=True, choices=REPRODUCE_TARGETS)
    common(r)
    r.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as e:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_OK if e.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except CertificationError as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return EXIT_CERT
    except (InputError, SchemeError, ValueError, FileNotFoundError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
