"""CSV/JSON emission for bound series and optimization runs.

Numeric cells are written with 17 significant digits so that runs are
reproducible bit-for-bit from the files; every CSV gets a JSON sidecar
recording the full configuration that produced it.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Iterable, Sequence


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, str):
        return v
    return f"{float(v):.17g}"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_sidecar(path: str, config: dict) -> str:
    """JSON sidecar next to a CSV, recording the producing configuration."""
    base, _ = os.path.splitext(path)
    side = base + ".config.json"
    with open(side, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return side
