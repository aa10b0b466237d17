"""Run a fixed CLI corpus and write one manifest of its outputs.

    python tools/output_manifest.py OUTDIR

Each command of CORPUS runs through `mannrates.cli.main`, in this process,
with `--out` set to a directory of its own under OUTDIR.  The manifest,
OUTDIR/manifest.json, lists each command with its exit code and output
files: the sha256 of every CSV and array JSON, and every sidecar
(`*.config.json`) as its JSON document without `wall_time` and `out`, the
two entries that differ between runs of the same code.  Two checkouts
write the same outputs when their manifests are equal, byte for byte:

    cmp parent/manifest.json change/manifest.json

The package is imported from the `src/` of the checkout this file lives
in, so a copy of the file placed in another checkout runs that checkout's
code.  The manifest pins no hash; it is a record to compare, not a test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mannrates import cli  # noqa: E402

KINDS = ("halpern", "km", "inertial-halpern", "inertial-km", "km-halpern",
         "extra-km", "ishikawa")

# km stepsizes over 0..16 that alternate high and low, so that the nested
# plan refuses 49 of the table's 136 pairs and the staircase takes them
KM_ALPHAS = "0,0.5,0.9,0.3,0.8,0.2,0.7,0.1,0.6,0.4,0.95,0.25,0.75,0.15,0.65,0.35,0.55"

CORPUS = (
    [f"optimize --mode s --exact --N {N}" for N in range(3)]
    + [f"optimize --mode ms --exact --N {N}" for N in range(1, 5)]
    + ["optimize --mode fh --exact --N 1",
       "optimize --mode ms --N 3 --exact --certify",
       "optimize --mode s --N 2 --exact --certify",
       "optimize --mode ms --N 12",
       "optimize --mode ms --N 12 --restarts 8 --certify"]
    + [f"optimize --mode ms --N 30 --restarts 8 --certify --seed {s}" for s in range(8)]
    + ["optimize --mode ms --N 100 --restarts 8"]
    # rows with 195 zeros of 201: the sparse rows of long MS runs
    + ["optimize --mode ms --N 200 --restarts 8"]
    + [f"optimize --mode s --N 4 --seed {s}" for s in range(8)]
    + ["optimize --mode s --N 12 --restarts 4"]
    + [f"optimize --mode scheme --kind {k} --N 10" for k in KINDS]
    + ["optimize --mode scheme --kind ishikawa --N 9"]
    + [f"reproduce --target {t}" for t in ("fig3", "fig4", "fig5")]
    + ["bounds --scheme km --alpha constant:0.5 --certify",
       "bounds --scheme km --alpha constant:1/3 --N 16 --exact --certify"]
    + [f"bounds --scheme km --alpha {KM_ALPHAS} --N 16{flags}"
       for flags in ("", " --certify", " --exact", " --exact --certify")]
    + ["optimize --mode scheme --kind km --N 60"]
)

VARYING = ("wall_time", "out")  # sidecar entries that differ from run to run


def _record(path: Path):
    if path.name.endswith(".config.json"):
        doc = json.loads(path.read_text())
        return {k: v for k, v in doc.items() if k not in VARYING}
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    root = Path(sys.argv[1])
    entries = []
    for k, command in enumerate(CORPUS):
        out = root / f"{k:02d}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(command.split() + ["--out", str(out)])
        files = sorted(out.glob("*")) if out.is_dir() else []
        entries.append({"command": command, "exit": code,
                        "files": {p.name: _record(p) for p in files}})
        print(f"{k:02d} exit {code} {command}")
    path = root / "manifest.json"
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(entries)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
