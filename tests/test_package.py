import ast
from pathlib import Path

import riemann_bci

# Defaulted dataclass fields plus defaulted parameters in the package: a new
# option has to raise this bound in the same change that adds it.
MAX_SETTABLE_VALUES = 53
# Names exported by the top-level package: a new one has to raise this bound.
MAX_PUBLIC_NAMES = 15


def test_public_names_sorted_unique_and_resolvable():
    names = riemann_bci.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(riemann_bci, name)]
    assert not missing, missing


def test_public_names_do_not_grow():
    assert len(riemann_bci.__all__) <= MAX_PUBLIC_NAMES, riemann_bci.__all__


def _settable_values(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            count += sum(
                isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body
            )
    return count


def test_settable_values_do_not_grow():
    package = Path(riemann_bci.__file__).parent
    count = sum(
        _settable_values(ast.parse(path.read_text())) for path in package.glob("*.py")
    )
    assert count <= MAX_SETTABLE_VALUES, (
        f"{count} settable values, more than {MAX_SETTABLE_VALUES}"
    )
