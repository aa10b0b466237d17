"""mannrates benchmark: time to a certified bound on three seeded workloads.

    python3 perfbench/run.py --workload tables --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints the end-to-end
metrics (pass and set-up wall time, each scaled by a fixed reference work
timed around it, and peak RSS) and with ``--trace 1`` the per-layer metrics
of a traced run.  Every command's output is checked
against the references in ``perfbench/refs`` outside the timed region.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

import os

# one BLAS/OpenMP thread, set before anything imports numpy
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
MIN_PASSES = 3


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: do the set-up only, in a fresh process")
    return p.parse_args(argv)


def use_source_tree():
    """Import mannrates from this checkout's src/, or fail."""
    if not (SRC / "mannrates" / "__init__.py").is_file():
        raise BenchError(f"no mannrates sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mannrates
    if Path(mannrates.__file__).resolve().parent != SRC / "mannrates":
        raise BenchError(f"imported mannrates from {mannrates.__file__}, not {SRC}")


def first_call_imports():
    """The lazy imports a CLI user pays on the first LP (HiGHS, scipy.sparse)."""
    import scipy.sparse  # noqa: F401
    from scipy.optimize import linprog

    linprog([1.0], A_eq=[[1.0]], b_eq=[1.0], bounds=(0, None), method="highs")


def setup(name, seed, workdir):
    """Imports, first-call imports and input generation; returns the workload."""
    use_source_tree()
    import workloads

    first_call_imports()
    return workloads.build(name, seed, workdir)


def measure_setup(args):
    """Set-up times of fresh processes run one after another."""
    import calibrate

    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    setups = calibrate.Ratios(calibrate.reference_startup, calibrate.REF_STARTUP_S)
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        setups.add(time.perf_counter() - t0)
    return setups


def run_pass(workload):
    """Run every command once; returns (wall seconds, outcomes)."""
    t0 = time.perf_counter()
    outcomes = [cmd.run() for cmd in workload.commands]
    return time.perf_counter() - t0, outcomes


class Tally:
    """Checks outputs outside the timed region and counts failed commands."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, outcomes):
        import workloads

        for cmd, outcome in zip(self.workload.commands, outcomes):
            self.attempted += 1
            problems = workloads.check(cmd, outcome, self.refs, self.workload.variant)
            if problems:
                self.failed += 1
                self.problems.append((cmd.label, problems))


def measure_untraced(workload, tally, seconds):
    """Pass times over ``seconds``, after one untimed warm-up pass."""
    import calibrate

    tally.add(run_pass(workload)[1])
    passes = calibrate.Ratios(calibrate.reference_work, calibrate.REF_S)
    start = time.perf_counter()
    while len(passes.times) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, outcomes = run_pass(workload)
        passes.add(wall)
        tally.add(outcomes)
    return passes


def measure_traced(workload, tally, seconds):
    """Alternate untraced and traced passes; spans come from the traced ones."""
    import spans

    tracer = spans.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, outcomes = run_pass(workload)
        plain.append(wall)
        tally.add(outcomes)
        tracer.run = len(traced)
        with tracer.installed(spans.layer_points()):
            with tracer.span("pass"):
                wall, outcomes = run_pass(workload)
        traced.append(wall)
        tally.add(outcomes)
    per_pass = [spans.pass_metrics(s) for s in spans.by_run(tracer.spans).values()]
    metrics = spans.fastest(per_pass)
    metrics["trace.overhead_frac"] = (min(traced) - min(plain)) / min(plain)
    return metrics, tracer, plain, traced


TRACE_FIELDS = ["id", "parent", "name", "run", "start", "end", "self_s", "failed"]


def write_trace(path, tracer, metrics):
    """JSON lines: the field names, the spans of the first traced pass (one
    array each; all passes would run to tens of MB), then the metrics."""
    import spans

    first = [s for s in tracer.spans if s.run == 0]
    selfs = spans.self_times(first)
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": TRACE_FIELDS}) + "\n")
        for s in first:
            fh.write(json.dumps([s.id, s.parent, s.name, s.run, s.start, s.end,
                                 selfs[s.id], s.failed]) + "\n")
        fh.write(json.dumps({"metrics": metrics}) + "\n")


def environment(args, workload):
    import numpy
    import scipy
    import workloads

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "variant": workload.variant, "held_out_seed": workloads.HELD_OUT_SEED,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            return 0
        declared = declared_metrics(args.trace)
        workload = setup(args.workload, args.seed, workdir)
        import workloads

        tally = Tally(workload, workloads.load_refs(args.workload))
        print("env: " + json.dumps(environment(args, workload)))
        if args.trace:
            measured, tracer, plain, traced = measure_traced(workload, tally, args.seconds)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            write_trace(trace_path, tracer, measured)
            print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
                  f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            setups = measure_setup(args)
            passes = measure_untraced(workload, tally, args.seconds)
            walls = passes.times
            lo, _, hi = statistics.quantiles(walls, n=4)
            print(f"raw pass wall times: {len(walls)} passes, fastest {min(walls):.4f}, "
                  f"median {statistics.median(walls):.4f}, quartiles {lo:.4f} .. {hi:.4f}, "
                  f"passes {[round(w, 4) for w in walls]}")
            print(f"pass / reference_work ratios: {[round(r, 3) for r in passes.ratios]}")
            print(f"raw set-up times of {len(setups.times)} fresh processes: "
                  f"{[round(t, 4) for t in setups.times]}; "
                  f"ratios to reference_startup {[round(r, 3) for r in setups.ratios]}")
            measured = {"wall_s": passes.scaled(), "setup_s": setups.scaled(),
                        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in declared}
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
        print(f"fail_frac: {tally.failed / tally.attempted:.6g} "
              f"({tally.failed} of {tally.attempted} commands)")
        for label, problems in tally.problems[:5]:
            print(f"FAILED {label}: {problems[0]}", file=sys.stderr)
        print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics}))
        return 0
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
