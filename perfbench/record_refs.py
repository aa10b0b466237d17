"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record_refs.py [workload ...]

Runs every command of every variant once and writes perfbench/refs/<workload>.json.
The references in the repository were recorded at the commit that added the
benchmark; re-record only when a change is meant to alter the outputs, and say so.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main(names):
    run.use_source_tree()
    import workloads

    workloads.REFS.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        refs = {}
        for variant in range(workloads.VARIANTS):
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                wl = workloads.build(name, variant, Path(tmp))
                refs[str(variant)] = {}
                for cmd in wl.commands:
                    outcome = cmd.run()
                    if not outcome.ok:
                        raise SystemExit(f"{name} variant {variant} {cmd.label}: "
                                         f"{outcome.detail}")
                    refs[str(variant)][cmd.label] = cmd.record(outcome)
            print(f"{name}: variant {variant} recorded", flush=True)
        with open(workloads.REFS / f"{name}.json", "w") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
