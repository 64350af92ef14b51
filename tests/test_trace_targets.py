"""Every function that `perfbench/tracing.py` wraps exists in weilkit.

`Tracer.install` looks each `(module, function)` of `TARGETS` up with a bare
`getattr`, so a name that leaves the package breaks `perfbench/run.py
--trace` at its first run.  The list is read from the file, which this test
does not change.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, function, *_ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module("weilkit." + module), function, None)), (
            module,
            function,
        )
