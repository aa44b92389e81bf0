"""The traced benchmark wraps package functions where their callers look
them up (``perfbench/tracer.py``); every binding it patches must exist."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_patched_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracer.PATCHES
        if attr not in vars(owner)
    ]
    assert not missing, missing
