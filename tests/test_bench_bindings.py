"""The traced benchmark wraps package functions where their callers look
them up (``perfbench/tracer.py``); every binding it patches must exist, and
every package import that nothing reads must be one of those bindings."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "riemann_bci"

# (module, name) imported only so that the tracer can wrap that binding.
TRACER_ONLY_IMPORTS = {
    ("adaptive", "featurize"),
    ("adaptive", "geometric_mean"),
    ("cli", "compare_modes"),
    ("simulator", "distances"),
}


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


def _unused_imports(path: Path) -> set[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_unused_imports_are_tracer_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patched = {
        (getattr(owner, "__name__", owner), attr) for owner, attr, _ in tracer.PATCHES
    }
    unused = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    }
    assert unused == TRACER_ONLY_IMPORTS
    assert all((f"riemann_bci.{module}", name) in patched for module, name in unused)
