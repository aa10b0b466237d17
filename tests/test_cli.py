"""CLI contract: outputs, sidecars, reproducibility, exit codes."""

import argparse
import ast
import csv
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from mannrates import cli, witness
from mannrates.distances import build_distance_table
from mannrates.optimize import STATIONARY_TOL
from mannrates.schemes import SCHEME_PARAMS, SchemeSpec, build_rows

from conftest import random_array


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def run(argv):
    return cli.main(argv)


def test_bounds_halpern_harmonic(tmp_path):
    out = str(tmp_path)
    code = run(["bounds", "--scheme", "halpern", "--beta", "n/(n+2)",
                "--N", "6", "--out", out])
    assert code == 0
    rows = _read_csv(os.path.join(out, "bounds.csv"))
    assert rows[0] == ["n", "R", "inv_R", "certificate"]
    assert float(rows[1][1]) == pytest.approx(1.0)
    assert float(rows[2][1]) == pytest.approx(7 / 9, abs=1e-12)
    assert rows[1][3] == "unverified"
    assert os.path.exists(os.path.join(out, "distance-table.csv"))
    assert os.path.exists(os.path.join(out, "bounds.config.json"))


def test_bounds_certify_flag(tmp_path):
    out = str(tmp_path)
    code = run(["bounds", "--scheme", "halpern", "--beta", "optimal",
                "--N", "5", "--out", out, "--certify"])
    assert code == 0
    rows = _read_csv(os.path.join(out, "bounds.csv"))
    assert rows[1][3] == "witness-verified"


@pytest.mark.parametrize("flags", [
    ["--scheme", "halpern", "--beta", "n/(n+2)", "--N", "20"],
    ["--scheme", "km", "--alpha", "0.5", "--N", "20"],
    ["--array", "unstructured.json", "--N", "10"],
    ["--scheme", "km", "--alpha", "n/(n+1)", "--N", "6", "--exact"],
])
def test_certified_and_uncertified_bounds_agree(tmp_path, flags):
    # the witness needs each pair's transport plan, but the table keeps the
    # table rule's value, the two-point closed form included
    if "unstructured.json" in flags:
        rows = random_array(random.Random(11), 10)
        (tmp_path / "unstructured.json").write_text(json.dumps({"rows": rows}))
        flags = [str(tmp_path / f) if f == "unstructured.json" else f for f in flags]
    outs = [str(tmp_path / "plain"), str(tmp_path / "certified")]
    assert run(["bounds", "--out", outs[0]] + flags) == 0
    assert run(["bounds", "--out", outs[1], "--certify"] + flags) == 0
    R = [[r[1] for r in _read_csv(os.path.join(out, "bounds.csv"))] for out in outs]
    assert R[0] == R[1]
    tables = [open(os.path.join(out, "distance-table.csv"), "rb").read() for out in outs]
    assert tables[0] == tables[1]


def test_bounds_array_file(tmp_path):
    # a 'rows' key or a bare list of rows
    for i, doc in enumerate(({"rows": [[1.0], [0.5, 0.5]]}, [[1.0], [0.5, 0.5]])):
        apath = tmp_path / f"array{i}.json"
        apath.write_text(json.dumps(doc))
        out = str(tmp_path / f"o{i}")
        code = run(["bounds", "--array", str(apath), "--N", "1", "--out", out])
        assert code == 0
        rows = _read_csv(os.path.join(out, "bounds.csv"))
        assert float(rows[2][1]) == pytest.approx(0.75, abs=1e-12)


def test_bounds_requires_scheme_or_array(tmp_path):
    assert run(["bounds", "--out", str(tmp_path)]) == 1


def test_bad_array_file_is_input_error(tmp_path, capsys):
    apath = tmp_path / "bad.json"
    apath.write_text("{not json")
    assert run(["bounds", "--array", str(apath), "--out", str(tmp_path)]) == 1
    assert "cannot read array file" in capsys.readouterr().err
    apath2 = tmp_path / "bad2.json"
    apath2.write_text(json.dumps({"rows": [[1.0], [0.9, 0.9]]}))
    assert run(["bounds", "--array", str(apath2), "--N", "1", "--out", str(tmp_path)]) == 1
    assert "does not sum to 1" in capsys.readouterr().err
    # a JSON scalar, files with fewer than N+1 rows, and NaN weights, which
    # fail every comparison and so must fail the row checks
    nan = float("nan")
    for i, (doc, N, msg) in enumerate((
            (3, 1, "expected a 'rows' key"),
            ({"rows": [[1.0], [0.5, 0.5]]}, 5, "needs rows 0..5"),
            ([[1.0], [0.5, 0.5]], 5, "needs rows 0..5"),
            ({"rows": [[1.0], [nan, 0.5], [0.2, 0.3, 0.5]]}, 2, "row 1 does not sum to 1"),
            ({"rows": [[nan], [0.5, 0.5]]}, 1, "row 0 must be the Dirac mass"))):
        apath = tmp_path / f"shape{i}.json"
        apath.write_text(json.dumps(doc))
        out = tmp_path / f"o{i}"
        assert run(["bounds", "--array", str(apath), "--N", str(N),
                    "--out", str(out)]) == 1
        assert msg in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flags, doc", [
    (["--scheme", "km", "--alpha"], [0, "x", 0.5]),
    (["--scheme", "km", "--alpha"], [0, None]),
    (["--scheme", "km", "--alpha"], [0, True, 0.5]),  # not alpha_1 = 1
    (["--array"], {"rows": [[True], [False, True]]}),  # not R_1 = 1
])
def test_json_values_that_are_no_numbers_are_input_errors(tmp_path, capsys,
                                                          flags, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    arg = str(path) if flags == ["--array"] else f"@{path}"
    out = tmp_path / "o"
    assert run(["bounds", *flags, arg, "--N", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "numbers" in err
    assert not out.exists()


def test_optimize_ms_small(tmp_path):
    out = str(tmp_path)
    code = run(["optimize", "--mode", "ms", "--N", "4", "--restarts", "4",
                "--out", out, "--certify"])
    assert code == 0
    rows = _read_csv(os.path.join(out, "optimize-ms.csv"))
    assert float(rows[2][1]) == pytest.approx(0.75, abs=1e-8)
    assert float(rows[3][1]) == pytest.approx(17 / 28, abs=1e-7)
    assert rows[1][3] == "witness-verified"
    with open(os.path.join(out, "optimize-ms-array.json")) as fh:
        doc = json.load(fh)
    assert len(doc["rows"]) == 5
    assert doc["rows"][1] == pytest.approx([0.5, 0.5], abs=1e-7)


def test_optimize_exact_mode(tmp_path):
    out = str(tmp_path)
    code = run(["optimize", "--mode", "ms", "--N", "2", "--exact",
                "--out", out])
    assert code == 0
    rows = _read_csv(os.path.join(out, "optimize-ms.csv"))
    assert float(rows[3][1]) == pytest.approx(17 / 28, abs=1e-15)


@pytest.mark.parametrize("exact", [False, True])
def test_optimize_certify_rebuilds_in_the_rows_arithmetic(tmp_path, monkeypatch, exact):
    # the witness of an exact run rebuilds its table exactly, a float run's
    # in floats
    seen = []
    build = witness.build_distance_table

    def recording(pi, exact=False, keep_plans=False):
        seen.append(exact)
        return build(pi, exact=exact, keep_plans=keep_plans)

    monkeypatch.setattr(witness, "build_distance_table", recording)
    argv = ["optimize", "--mode", "ms", "--N", "3", "--certify", "--out", str(tmp_path)]
    assert run(argv + ["--exact"] * exact) == 0
    assert seen == [exact]
    rows = _read_csv(tmp_path / "optimize-ms.csv")
    assert {r[3] for r in rows[1:]} == {"witness-verified"}


with open(Path(__file__).parent / "data" / "exact_arrays.json") as fh:
    _EXACT_ARRAYS = json.load(fh)


@pytest.mark.parametrize("command", sorted(_EXACT_ARRAYS))
def test_exact_optimizer_arrays_pinned(tmp_path, command):
    """The array JSON of each exact optimizer run, as recorded before the
    exact stages were solved on integers."""
    argv = command.split()
    assert run(argv + ["--out", str(tmp_path)]) == 0
    mode = argv[argv.index("--mode") + 1]
    with open(tmp_path / f"optimize-{mode}-array.json") as fh:
        assert json.load(fh) == _EXACT_ARRAYS[command]


@pytest.mark.parametrize("source", ["flags", "array"])
def test_bounds_exact_reads_decimals_as_rationals(tmp_path, source):
    # 0.3 is read as 3/10, and the array file's 0.49 as 49/100: the table
    # runs in Fractions and certifies
    alphas = (Fraction(0),) + (Fraction(3, 10),) * 6
    pi = build_rows(SchemeSpec("km", alphas=alphas), 6)
    if source == "flags":
        flags = ["--scheme", "km", "--alpha", "0.3"]
    else:  # every weight is a short decimal, written exactly by repr
        apath = tmp_path / "array.json"
        apath.write_text(json.dumps({"rows": [[float(w) for w in r] for r in pi.rows]}))
        flags = ["--array", str(apath)]
    out = str(tmp_path / "o")
    assert run(["bounds", "--N", "6", "--exact", "--certify", "--out", out] + flags) == 0
    table, _ = build_distance_table(pi, exact=True)
    rows = _read_csv(os.path.join(out, "bounds.csv"))
    assert [r[1] for r in rows[1:]] == [f"{float(R):.17g}" for R in table.residuals]
    assert {r[3] for r in rows[1:]} == {"witness-verified"}


@pytest.mark.parametrize("flags, array", [
    (["--scheme", "km", "--alpha", "nan"], None),
    (["--scheme", "km", "--alpha", "constant:inf"], None),
    (["--scheme", "km", "--alpha", "1/0"], None),
    (["--scheme", "halpern", "--beta", "0,0.5,nan"], None),
    ([], '{"rows": [[1.0], [0.5, NaN]]}'),
    ([], '{"rows": [[1.0], [0.5, "0.5"]]}'),
    ([], '{"rows": [[1.0], [0.5, 0.4999999999999]]}'),  # not exactly 1
])
def test_bounds_exact_needs_rational_input(tmp_path, capsys, flags, array):
    N = "2"
    if array is not None:  # the files hold rows 0..1
        (tmp_path / "a.json").write_text(array)
        flags, N = ["--array", str(tmp_path / "a.json")], "1"
    out = tmp_path / "o"
    assert run(["bounds", "--N", N, "--exact", "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "needs rows" not in err
    assert not out.exists()


def test_optimize_scheme_requires_kind(tmp_path):
    assert run(["optimize", "--mode", "scheme", "--N", "4",
                "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv", [
    ["optimize", "--mode", "scheme", "--kind", "halpern", "--N", "1", "--exact"],
    ["reproduce", "--target", "remarks-table", "--N", "20", "--exact"],
    ["reproduce", "--target", "remarks-table", "--N", "20", "--certify"],
    ["reproduce", "--target", "remarks-table", "--N", "20", "--restarts", "8"],
    ["bounds", "--scheme", "km", "--alpha", "0.5", "--N", "2", "--restarts", "7"],
    # beside --array, a scheme or stepsize flag would go unread
    ["bounds", "--array", "ARRAY", "--N", "1", "--scheme", "km"],
    ["bounds", "--array", "ARRAY", "--N", "1", "--alpha", "0.5"],
    ["bounds", "--array", "ARRAY", "--N", "1", "--beta", "0.5"],
    # a stepsize the kind does not read
    ["bounds", "--scheme", "halpern", "--beta", "0.5", "--alpha", "0.3", "--N", "2"],
    ["bounds", "--scheme", "km", "--alpha", "0.5", "--beta", "0.3", "--N", "2"],
    # only --mode scheme reads --kind
    ["optimize", "--mode", "ms", "--N", "3", "--restarts", "2", "--kind", "km"],
    ["optimize", "--mode", "s", "--N", "2", "--kind", "halpern"],
    ["optimize", "--mode", "fh", "--N", "1", "--kind", "km"],
    ["optimize", "--mode", "ms", "--N", "1", "--exact", "--kind", "km"],
])
def test_unsupported_flags_are_input_errors(tmp_path, argv):
    # a flag the command cannot honour must not be ignored silently
    array = tmp_path / "array.json"  # valid, so only the refusal can fail
    array.write_text(json.dumps({"rows": [[1.0], [0.5, 0.5]]}))
    argv = [str(array) if a == "ARRAY" else a for a in argv]
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bounds", "--scheme", "foo"],
    ["bounds", "--N", "abc", "--scheme", "km"],
    ["bounds", "--scheme", "general"],  # rows come from --array
    ["optimize", "--N", "3"],
    ["reproduce", "--target", "nope"],
    [],
])
def test_usage_errors_are_input_errors(tmp_path, argv):
    # exit 2 is reserved for a failed certification
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    assert not out.exists()


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["bounds", "--help"]):
        assert run(argv) == 0
    assert "--scheme" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["optimize", "--mode", "ms", "--N", "-2"],
    ["bounds", "--scheme", "km", "--alpha", "0.5", "--N", "-1"],
    ["optimize", "--mode", "fh", "--N", "0"],
])
def test_horizon_out_of_range_is_input_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    assert "concatenate" not in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["inertial-halpern", "inertial-km"])
@pytest.mark.parametrize("a, b", [("0.9", "0.1"), ("0.8", "0.2")])
def test_bounds_float_pair_summing_to_one(tmp_path, kind, a, b):
    # alpha + beta == 1.0 in float though 1 - alpha - beta rounds below 0
    assert run(["bounds", "--scheme", kind, "--alpha", a, "--beta", b,
                "--N", "2", "--out", str(tmp_path)]) == 0
    assert len(_read_csv(tmp_path / "bounds.csv")) == 4


def _subcommands():
    sub = next(a for a in cli.make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_scheme_choices_are_the_scheme_kinds():
    # each choice list is the table the handler dispatches on
    tables = {("bounds", "scheme"): SCHEME_PARAMS,
              ("optimize", "kind"): SCHEME_PARAMS,
              ("optimize", "mode"): cli.OPTIMIZERS,
              ("reproduce", "target"): cli.REPRODUCE_TARGETS}
    choices = {(cmd, a.dest): a.choices for cmd, p in _subcommands().items()
               for a in p._actions if a.choices is not None}
    assert choices.keys() == tables.keys()
    assert all(choices[k] is t for k, t in tables.items())
    # a mode in any case
    args = cli.make_parser().parse_args(["optimize", "--mode", "MS"])
    assert args.mode == "ms"


# flags a subcommand accepts without reading, and why
UNREAD_FLAGS = {
    ("bounds", "seed"): "perfbench's tables commands pass --seed to bounds; "
                        "bounds draws nothing random, and the sidecar records it",
}


def _refusal_nodes(root):
    """The nodes in the test of each `if` under `root` whose body only
    raises: a flag read there is refused, not honoured."""
    return {id(n) for node in ast.walk(root)
            if isinstance(node, ast.If)
            and all(isinstance(s, ast.Raise) for s in node.body)
            for n in ast.walk(node.test)}


def _flags_read(handler):
    """The `args.<flag>` reads of the cli function `handler` and of every cli
    function or table it names, transitively, outside refusals.  The
    sidecar's `vars(args)` is no read."""
    tree = ast.parse(Path(cli.__file__).read_text())
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((t.id, node.value) for t in node.targets
                        if isinstance(t, ast.Name))
    todo, seen, read = [handler], set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        refused = _refusal_nodes(defs[name])
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
            elif (isinstance(node, ast.Attribute) and id(node) not in refused
                  and getattr(node.value, "id", None) == "args"):
                read.add(node.attr)
    return read


def test_every_flag_is_read_by_its_handler():
    # a subcommand declares only the flags its handler, or a helper it calls
    # or dispatches to, reads
    unread = {(cmd, a.dest) for cmd, p in _subcommands().items()
              for a in p._actions if a.dest != "help"
              and a.dest not in _flags_read(p.get_default("func").__name__)}
    assert unread == set(UNREAD_FLAGS)


def test_optimize_unknown_mode(tmp_path):
    assert run(["optimize", "--mode", "quench", "--out", str(tmp_path)]) == 1


def test_certification_failure_exit_code(tmp_path, monkeypatch):
    from mannrates.witness import CertificationError

    def boom(*a, **k):
        raise CertificationError("forced")

    monkeypatch.setattr(cli, "build_worst_case_witness", boom)
    code = run(["bounds", "--scheme", "halpern", "--beta", "optimal",
                "--N", "3", "--out", str(tmp_path), "--certify"])
    assert code == 2


def test_byte_identical_reruns(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert run(["optimize", "--mode", "ms", "--N", "4", "--restarts", "4",
                    "--seed", "7", "--out", out]) == 0
    b1 = open(os.path.join(out1, "optimize-ms.csv"), "rb").read()
    b2 = open(os.path.join(out2, "optimize-ms.csv"), "rb").read()
    assert b1 == b2
    a1 = open(os.path.join(out1, "optimize-ms-array.json"), "rb").read()
    a2 = open(os.path.join(out2, "optimize-ms-array.json"), "rb").read()
    assert a1 == a2


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
_SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args, threads=None):
    """Run a fresh interpreter on this checkout with the thread variables
    set as in the dict `threads` and the others removed."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(threads or {})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def test_cli_runs_one_blas_thread_unless_told_otherwise(tmp_path):
    # the float MS optimum depends on the BLAS thread count; without the
    # variables the CLI must write what a one-thread run writes
    argv = ["-m", "mannrates.cli", "optimize", "--mode", "ms", "--N", "30",
            "--restarts", "8"]
    for name, threads in (("unset", {}), ("pinned", dict.fromkeys(_THREAD_VARS, "1"))):
        proc = _python(*argv, "--out", str(tmp_path / name), threads=threads)
        assert proc.returncode == 0, proc.stderr
    for f in ("optimize-ms.csv", "optimize-ms-array.json"):
        assert (tmp_path / "unset" / f).read_bytes() == (tmp_path / "pinned" / f).read_bytes()
    # a count the user sets is left alone
    code = ("import os, mannrates; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
    proc = _python("-c", code, threads={"OPENBLAS_NUM_THREADS": "2"})
    assert proc.stdout.split() == ["2", "1"], proc.stderr


def test_the_cli_prints_each_line_once(tmp_path):
    # stdout is a pipe, so block-buffered: a forked child that flushed the
    # parent's buffer again would print its lines twice
    code = "import sys; from mannrates.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = _python("-c", code, "optimize", "--mode", "ms", "--N", "12",
                   "--restarts", "4", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("wrote ")
    assert proc.stderr == ""


def test_importing_the_cli_imports_no_multiprocessing():
    # the CLI's start-up loads no process machinery
    proc = _python("-c", "import sys, mannrates.cli; "
                   "print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_sidecars_of_reruns_differ_only_in_wall_time(tmp_path):
    out = str(tmp_path)
    docs = []
    for _ in range(2):
        assert run(["optimize", "--mode", "ms", "--exact", "--N", "2",
                    "--out", out]) == 0
        with open(os.path.join(out, "optimize-ms.config.json")) as fh:
            text = fh.read()
        assert "0x" not in text
        doc = json.loads(text)
        assert "func" not in doc
        del doc["wall_time"]
        docs.append(doc)
    assert docs[0] == docs[1]


def _sidecar(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def test_sidecars_count_the_free_stages(tmp_path):
    # a free run records how many stages kept the certified MS row and how
    # many searched, and the largest certified gap; its CSV keeps the
    # columns, and with every stage certified it holds the MS run's rows
    out = str(tmp_path)
    for mode in ("s", "ms"):
        assert run(["optimize", "--mode", mode, "--N", "4", "--restarts", "8",
                    "--out", out]) == 0
    free = _sidecar(out, "optimize-s.config.json")["free_stages"]
    assert free["stationary"] == 4 and free["searched"] == 0
    assert 0 <= free["max_rho"] <= STATIONARY_TOL
    assert "free_stages" not in _sidecar(out, "optimize-ms.config.json")
    s = _read_csv(os.path.join(out, "optimize-s.csv"))
    assert s[0] == ["n", "R", "inv_R", "certificate"]
    assert s == _read_csv(os.path.join(out, "optimize-ms.csv"))
    assert run(["reproduce", "--target", "fig3", "--N", "2", "--out", out]) == 0
    free = _sidecar(out, "fig3.config.json")["free_stages"]
    assert free["stationary"] + free["searched"] == 2


def test_reproduce_remarks_table(tmp_path):
    out = str(tmp_path)
    assert run(["reproduce", "--target", "remarks-table", "--N", "30",
                "--out", out]) == 0
    rows = _read_csv(os.path.join(out, "remarks-table.csv"))
    # harmonic stepsizes vs closed form, and the ratio column peaks at n = 4
    ratios = {int(r[0]): float(r[4]) for r in rows[1:]}
    assert max(ratios, key=ratios.get) == 4
    assert ratios[4] == pytest.approx(1.05223, abs=1e-4)
    for r in rows[1:]:
        assert float(r[1]) == pytest.approx(float(r[2]), abs=1e-10)


def test_reproduce_lower_bounds(tmp_path):
    out = str(tmp_path)
    assert run(["reproduce", "--target", "lower-bounds", "--N", "20",
                "--out", out, "--seed", "3"]) == 0
    rows = _read_csv(os.path.join(out, "lower-bounds.csv"))
    for r in rows[1:]:
        n = int(r[0])
        assert float(r[1]) >= 1 / (n + 1) - 1e-12
        assert float(r[3]) >= 1 / (n + 1) ** 0.5 - 1e-12


def test_sidecar_contents(tmp_path):
    out = str(tmp_path)
    run(["bounds", "--scheme", "halpern", "--beta", "n/(n+1)", "--N", "4",
         "--out", out, "--seed", "9"])
    with open(os.path.join(out, "bounds.config.json")) as fh:
        doc = json.load(fh)
    assert doc["command"] == "bounds"
    assert doc["seed"] == 9
    assert doc["N"] == 4
    assert "restarts" not in doc


def test_scheme_sidecar_leaves_out_seed_and_restarts(tmp_path):
    # the scheme search draws nothing: --seed and --restarts are accepted,
    # and neither changes the outputs nor is recorded
    outs = []
    for extra in ([], ["--seed", "5", "--restarts", "3"]):
        out = tmp_path / str(len(outs))
        assert run(["optimize", "--mode", "scheme", "--kind", "km", "--N", "3",
                    "--out", str(out)] + extra) == 0
        outs.append(out)
        doc = _sidecar(out, "optimize-scheme.config.json")
        assert doc["kind"] == "km" and doc["mode"] == "scheme"
        assert not {"seed", "restarts"} & set(doc)
    for name in ("optimize-scheme.csv", "optimize-scheme-array.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert run(["optimize", "--mode", "ms", "--N", "2", "--restarts", "2",
                "--seed", "4", "--out", str(tmp_path)]) == 0
    doc = _sidecar(tmp_path, "optimize-ms.config.json")
    assert doc["seed"] == 4 and doc["restarts"] == 2


def _fake_result(N, asked):
    """An optimizer result of horizon N, with KM rows; records N in asked."""
    asked.append(N)
    return SimpleNamespace(
        values=[1 / (n + 1) for n in range(N + 1)],
        array=build_rows(SchemeSpec("km", alphas=(0,) + (0.5,) * N), N),
        free_stages=[("stationary", 0.0)] * N)


@pytest.mark.parametrize("target, N, ran", [
    ("fig3", 31, 30), ("fig4", 41, 40), ("fig5", 7, 5),
    ("remarks-table", 5, 20), ("lower-bounds", 51, 50)])
def test_reproduce_sidecars_record_the_horizon_run(tmp_path, monkeypatch,
                                                   target, N, ran):
    # a target may run another horizon than --N; its sidecar records the one
    # it ran, the last n of its CSV, and fig3 and fig5 their restarts.  The
    # optimizers are stood in for: only the horizon they are asked matters
    asked = []
    monkeypatch.setattr(cli, "optimize_sequential",
                        lambda N, cfg, monotone: _fake_result(N, asked))
    monkeypatch.setattr(cli, "optimize_fixed_horizon",
                        lambda N, cfg: _fake_result(N, asked))
    monkeypatch.setattr(cli, "optimize_scheme",
                        lambda kind, N: _fake_result(N, asked))
    out = str(tmp_path)
    assert run(["reproduce", "--target", target, "--N", str(N), "--out", out]) == 0
    doc = _sidecar(out, f"{target}.config.json")
    assert doc["N"] == int(_read_csv(os.path.join(out, f"{target}.csv"))[-1][0]) == ran
    assert max(asked, default=ran) == ran
    assert doc.get("restarts") == (8 if target in ("fig3", "fig5") else None)
    assert not {"exact", "certify"} & set(doc)


@pytest.mark.parametrize("target, reads_seed", [
    ("fig3", True), ("fig4", False), ("fig5", True), ("remarks-table", False),
    ("lower-bounds", True)])
def test_reproduce_sidecars_record_seed_only_where_read(tmp_path, monkeypatch,
                                                        target, reads_seed):
    # fig3 and fig5 seed their optimizers and lower-bounds draws its
    # stepsizes; fig4's scheme searches and the remarks table draw nothing
    monkeypatch.setattr(cli, "optimize_sequential",
                        lambda N, cfg, monotone: _fake_result(N, []))
    monkeypatch.setattr(cli, "optimize_fixed_horizon",
                        lambda N, cfg: _fake_result(N, []))
    monkeypatch.setattr(cli, "optimize_scheme",
                        lambda kind, N: _fake_result(N, []))
    out = str(tmp_path)
    assert run(["reproduce", "--target", target, "--N", "3", "--seed", "6",
                "--out", out]) == 0
    doc = _sidecar(out, f"{target}.config.json")
    assert doc.get("seed") == (6 if reads_seed else None)
    assert ("seed" in doc) == reads_seed


def test_stepsize_flags_expand_over_the_horizon():
    # a formula or constant gives the values at 0..N, a list is taken as given
    assert cli._parse_steps("n/(n+1)", 4, False) == tuple(n / (n + 1) for n in range(5))
    assert cli._parse_steps("constant:0.5", 3, False) == (0.5,) * 4
    assert cli._parse_steps("0.5", 3, False) == (0.5,) * 4
    assert cli._parse_steps("0,0.1,0.2", 5, False) == (0, 0.1, 0.2)
    optimal = cli._parse_steps("optimal", 6, False)
    assert optimal == cli._parse_steps("optimal-recursion", 6, False)
    assert optimal[:3] == (0, 0.5, 0.625)
    exact = cli._parse_steps("n/(n+1)", 4, True)
    assert exact == tuple(Fraction(n, n + 1) for n in range(5))
    assert all(type(v) is Fraction for v in exact)
    assert cli._parse_steps("constant:0.3", 2, True) == (Fraction(3, 10),) * 3


def test_constant_and_list_stepsizes(tmp_path):
    out = str(tmp_path)
    assert run(["bounds", "--scheme", "km", "--alpha", "constant:0.5",
                "--N", "4", "--out", out]) == 0
    assert run(["bounds", "--scheme", "km", "--alpha", "0,0.5,0.5,0.5,0.5",
                "--N", "4", "--out", out]) == 0
    rows = _read_csv(os.path.join(out, "bounds.csv"))
    assert len(rows) == 6
