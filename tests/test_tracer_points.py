"""The benchmark's tracer finds every layer it wraps.

`perfbench/spans.py` wraps each layer callable under the attribute name its
owner binds it to, and a traced run raises KeyError on a name that has gone.
The benchmark's own tests check this too, but the package's suite does not
run them, so a renamed layer callable fails here first.  The module is
loaded from its file and only read."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    points = _spans_module().layer_points()
    assert points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in points if attr not in vars(owner)]
    assert missing == []
    assert all(callable(vars(owner)[attr]) for owner, attr, _ in points)
