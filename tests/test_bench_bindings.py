"""The traced benchmark wraps package functions where their callers look
them up (``perfbench/tracer.py``); every binding it patches must exist, and
every package import that nothing reads must be one of those bindings."""

import ast
import importlib.util
import math
from pathlib import Path

import numpy as np
import scipy.signal

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


# One operation's output digest per workload at seed 301 with a pool of one.
WORKLOAD_DIGESTS = {
    "ssvep_curve": "068ba575ad99aadc6c3ca8fa2abfbc69d7293464d5e7b0a4f13aee576a5c47f3",
    "p300_session": "62ce28b017311b2f57a429929c39fc852cabf43d93fe33f2ca69b49104c1665c",
    "erp_calibration": "8ec2b5bb19e9169b10fca6c0cd043d58b02de27c92634217ce12726286ccf8d1",
}


# The work of that operation, counted while it runs: np.linalg.eigh and
# eigvalsh calls and their summed batch x n^3, and scipy.signal.sosfilt calls
# and the values they filter (rows x samples, padding included).  A change
# that lowers the work lowers a ceiling; one that raises a ceiling says why.
MAX_OPERATION_WORK = {
    "ssvep_curve": {"eigh_calls": 280, "eigh_batch_n3": 4_712_256,
                    "sosfilt_calls": 612, "sosfilt_values": 3_345_408},
    "p300_session": {"eigh_calls": 628, "eigh_batch_n3": 4_008_960,
                     "sosfilt_calls": 0, "sosfilt_values": 0},
    "erp_calibration": {"eigh_calls": 21, "eigh_batch_n3": 2_506_752,
                        "sosfilt_calls": 0, "sosfilt_values": 0},
}


def _count_work(monkeypatch, work):
    """Wrap eigh, eigvalsh and sosfilt where the package looks them up, adding
    each call's work to ``work``."""

    def counted(owner, name, calls, amount, size):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            work[calls] += 1
            work[amount] += size(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def batch_n3(a, *_):
        return math.prod(a.shape[:-2]) * a.shape[-1] ** 3

    for name in ("eigh", "eigvalsh"):
        counted(np.linalg, name, "eigh_calls", "eigh_batch_n3", batch_n3)
    counted(scipy.signal, "sosfilt", "sosfilt_calls", "sosfilt_values", lambda _, x, *__: x.size)


def test_benchmark_operations_keep_their_outputs(tmp_path, monkeypatch):
    """Every call the benchmark makes into the package still works and gives
    the same output, checked by the workload's own check, and does no more
    work than its ``MAX_OPERATION_WORK`` ceilings."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    assert set(workloads.WORKLOADS) == set(WORKLOAD_DIGESTS) == set(MAX_OPERATION_WORK)
    for name, workload_type in workloads.WORKLOADS.items():
        workload = workload_type(301, pool_size=1)
        workdir = tmp_path / name
        workdir.mkdir()
        state = workload.setup(workdir)
        work = dict.fromkeys(MAX_OPERATION_WORK[name], 0)
        with monkeypatch.context() as patched:
            _count_work(patched, work)
            output = workload.operate(state, 0)
        result = workload.check(state, 0, output)
        assert result.digest == WORKLOAD_DIGESTS[name], name
        over = {k: v for k, v in work.items() if v > MAX_OPERATION_WORK[name][k]}
        assert not over, (name, work)
