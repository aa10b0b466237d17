"""The three benchmark workloads: seeded inputs, the commands of one pass, and
the checks of their outputs against references recorded at the seed commit.

The benchmark seed selects one of ``VARIANTS`` input sets (``seed % VARIANTS``)
so that a recorded reference exists for every seed.  Arrays are a fixed base
instance with a per-variant jitter: the values change with the seed while the
work (which pairs pass the greedy test, how many transport solves) stays close
to that of the base instance, so run-to-run spread measures the program and not
the draw.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List

from mannrates import cli, distances, witness
from mannrates.schemes import TriangularArray

VARIANTS = 8
DEFAULT_SEED = 0
HELD_OUT_SEED = 7  # variant 7: not run while the benchmark or a change is tuned
TOL = 1e-9
REFS = Path(__file__).resolve().parent / "refs"

WORKLOADS = ("tables", "optimize-ms", "optimize-search")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


# ---------------------------------------------------------------------------
# inputs

def km_rows(rng: random.Random, base_alphas, jitter: float):
    """KM-style monotone rows: pi^n = (1 - a_n) pi^{n-1} padded, plus a_n at n."""
    rows = [(1.0,)]
    for b in base_alphas:
        a = b * (1 + jitter * rng.uniform(-1, 1))
        rows.append(tuple([(1 - a) * w for w in rows[-1]] + [a]))
    return rows


def unstructured_rows(rng: random.Random, base_weights, jitter: float):
    rows = [(1.0,)]
    for ws in base_weights:
        w = [x * (1 + jitter * rng.uniform(-1, 1)) for x in ws]
        total = sum(w)
        rows.append(tuple(x / total for x in w))
    return rows


def rational_rows(rng: random.Random, N: int):
    rows = [(Fraction(1),)]
    for n in range(1, N + 1):
        w = [rng.randint(1, 9) for _ in range(n + 1)]
        total = sum(w)
        rows.append(tuple(Fraction(x, total) for x in w))
    return rows


def _base_alphas(N):
    rng = random.Random("perfbench-km-base")
    return [rng.uniform(0.05, 0.95) for _ in range(N)]


def _base_weights(N):
    rng = random.Random("perfbench-unstructured-base")
    return [[rng.random() for _ in range(n + 1)] for n in range(1, N + 1)]


# ---------------------------------------------------------------------------
# commands and their outputs

@dataclass
class Outcome:
    ok: bool                 # ran to completion with exit code 0
    detail: str              # exit code / traceback / captured stderr
    result: object = None    # what the checks read (an output dir or a table)


@dataclass
class Command:
    label: str
    execute: Callable[[], Outcome]
    check: Callable[[Outcome, dict], List[str]]
    record: Callable[[Outcome], dict]

    def run(self) -> Outcome:
        try:
            return self.execute()
        except Exception:  # the pass goes on; the command counts as failed
            return Outcome(False, traceback.format_exc())


def _cli(argv: List[str], outdir: Path) -> Callable[[], Outcome]:
    def execute():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--out", str(outdir)])
        return Outcome(rc == 0, f"exit {rc}: {err.getvalue().strip()}", outdir)
    return execute


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(name, got, want, tol=TOL):
    if len(got) != len(want):
        return [f"{name}: {len(got)} values, reference has {len(want)}"]
    worst = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    return [f"{name}: off by {worst:.3e} (> {tol:g})"] if worst > tol else []


def _bounds_read(outcome: Outcome):
    out = outcome.result
    bounds = _read_csv(out / "bounds.csv")
    table = _read_csv(out / "distance-table.csv")
    return ([float(r["R"]) for r in bounds], {r["certificate"] for r in bounds},
            [float(r["d"]) for r in table])


def _bounds_record(outcome: Outcome) -> dict:
    R, _, d = _bounds_read(outcome)
    return {"R": [float(f"{v:.12g}") for v in R], "d": [float(f"{v:.12g}") for v in d]}


def _bounds_check(outcome: Outcome, ref: dict) -> List[str]:
    R, certs, d = _bounds_read(outcome)
    problems = _close("R_n", R, ref["R"]) + _close("d(m,n)", d, ref["d"])
    if certs != {"witness-verified"}:
        problems.append(f"certificate column reads {sorted(certs)}")
    return problems


def _optimize_read(outcome: Outcome, mode: str):
    out = outcome.result
    rows = _read_csv(out / f"optimize-{mode}.csv")
    with open(out / f"optimize-{mode}-array.json") as fh:
        array = json.load(fh)["rows"]
    return rows, array


def _optimize_record(mode: str):
    def record(outcome):
        rows, _ = _optimize_read(outcome, mode)
        return {"R_N": float(rows[-1]["R"]), "R": [r["R"] for r in rows]}
    return record


def _optimize_check(mode: str, certified: bool, exact: bool):
    def check(outcome, ref):
        rows, array = _optimize_read(outcome, mode)
        R = [float(r["R"]) for r in rows]
        problems = []
        if R[-1] > ref["R_N"] + TOL:
            problems.append(f"R_N = {R[-1]!r} exceeds reference {ref['R_N']!r} + {TOL:g}")
        if exact and [r["R"] for r in rows] != ref["R"]:
            problems.append("exact R_n differ from the reference")
        want = "witness-verified" if certified else "unverified"
        if {r["certificate"] for r in rows} != {want}:
            problems.append(f"certificate column is not {want!r}")
        # the optimizer's stage values come from its own closed forms and LPs;
        # a plain table build of the emitted array must agree with them
        table, _ = distances.build_distance_table(TriangularArray(array))
        return problems + _close("rebuilt R_n", [float(r) for r in table.residuals], R)
    return check


def _optimize_command(label, argv, outdir, certified=False, exact=False):
    mode = argv[argv.index("--mode") + 1]
    return Command(label, _cli(argv, outdir), _optimize_check(mode, certified, exact),
                   _optimize_record(mode))


def _exact_table(rows) -> Callable[[], Outcome]:
    def execute():
        pi = TriangularArray(rows)
        table, plans = distances.build_distance_table(pi, exact=True, keep_plans=True)
        witness.build_worst_case_witness(pi, table=table, plans=plans)
        return Outcome(True, "witness certified", table)
    return execute


def _exact_record(outcome: Outcome) -> dict:
    table = outcome.result
    return {"R": [str(v) for v in table.residuals],
            "d": [str(d) for _, _, d in table.csv_rows()]}


def _exact_check(outcome: Outcome, ref: dict) -> List[str]:
    got = _exact_record(outcome)
    if not all(isinstance(v, (int, Fraction)) for v in outcome.result.residuals):
        return ["table is not rational"]
    return [f"exact {k} differ from the reference" for k in ("R", "d") if got[k] != ref[k]]


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Workload:
    name: str
    seed: int
    commands: List[Command]

    @property
    def variant(self) -> int:
        return variant_of(self.seed)


def _write_array(path: Path, rows) -> str:
    with open(path, "w") as fh:
        json.dump({"rows": [list(r) for r in rows]}, fh)
    return str(path)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    v = variant_of(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    out = lambda i: workdir / f"out{i}"
    s = ["--seed", str(v)]
    if name == "tables":
        # the stream names fix the inputs the references in refs/ were
        # recorded for: renaming one changes every reference
        rng = random.Random(f"tables-float:{v}")
        km = _write_array(workdir / "km.json", km_rows(rng, _base_alphas(22), 0.05))
        un = _write_array(workdir / "unstructured.json",
                          unstructured_rows(rng, _base_weights(16), 0.2))
        rational = rational_rows(random.Random(f"exact-small:{v}"), 12)
        commands = [
            Command("bounds km N=22", _cli(["bounds", "--array", km, "--N", "22",
                                            "--certify"] + s, out(0)),
                    _bounds_check, _bounds_record),
            Command("bounds unstructured N=16",
                    _cli(["bounds", "--array", un, "--N", "16", "--certify"] + s, out(1)),
                    _bounds_check, _bounds_record),
            Command("exact table+witness N=12", _exact_table(rational),
                    _exact_check, _exact_record),
            _optimize_command("optimize ms N=3 exact",
                              ["optimize", "--mode", "ms", "--N", "3", "--exact"] + s,
                              out(3), exact=True),
        ]
    elif name == "optimize-ms":
        commands = [_optimize_command(
            "optimize ms N=30", ["optimize", "--mode", "ms", "--N", "30",
                                 "--restarts", "8", "--certify"] + s,
            out(0), certified=True)]
    elif name == "optimize-search":
        commands = [
            _optimize_command("optimize scheme km N=12",
                              ["optimize", "--mode", "scheme", "--kind", "km",
                               "--N", "12"] + s, out(0)),
            _optimize_command("optimize s N=4",
                              ["optimize", "--mode", "s", "--N", "4",
                               "--restarts", "8"] + s, out(1)),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return Workload(name, seed, commands)


def load_refs(name: str) -> dict:
    """References for every variant of workload ``name``, keyed by command label."""
    with open(REFS / f"{name}.json") as fh:
        return json.load(fh)


def check(command: Command, outcome: Outcome, refs: dict, variant: int) -> List[str]:
    """Problems with one command's output; empty when it is correct."""
    if not outcome.ok:
        return [outcome.detail]
    try:
        return command.check(outcome, refs[str(variant)][command.label])
    except Exception:  # unreadable or missing output is a wrong output
        return [traceback.format_exc()]
