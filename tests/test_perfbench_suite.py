"""The benchmark's own tests pass against this source tree.

pytest does not collect them: they are a unittest suite, run as
`python -m unittest discover -s perfbench` from the repository root.  They
trace and call the package (`check_monotone`, `build_worst_case_witness`,
the CLI), so a change under `src/` can break them.  Their runs write only
under `perfbench/out/`, which git ignores."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_suite_passes():
    proc = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
