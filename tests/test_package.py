import argparse
import ast
from pathlib import Path

import riemann_bci
from riemann_bci.cli import build_parser

# Defaulted dataclass fields plus defaulted parameters in the package: a new
# option has to raise this bound in the same change that adds it.
MAX_SETTABLE_VALUES = 41
# Names exported by the top-level package: a new one has to raise this bound.
MAX_PUBLIC_NAMES = 15
# Option strings over every CLI subcommand, -h/--help aside: a new flag has
# to raise this bound.
MAX_CLI_OPTIONS = 50


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


def test_cli_options_do_not_grow():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = [
        f"{name} {option}"
        for name, sub in commands.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    ]
    assert len(options) <= MAX_CLI_OPTIONS, options


# The SPD check's internals, which ``features`` does not import: it takes its
# check from ``spd.checked_rows``, and only ``spd`` builds checked rows.
SPD_CHECK_INTERNALS = {
    "SPD_EIGENVALUE_RTOL",
    "decompose",
    "Evd",
    "not_positive_definite",
    "symmetrized",
}


def test_spd_check_has_one_home():
    package = Path(riemann_bci.__file__).parent
    tree = ast.parse((package / "features.py").read_text())
    imported = {
        a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names
    }
    assert not imported & SPD_CHECK_INTERNALS, imported & SPD_CHECK_INTERNALS
    for path in package.glob("*.py"):
        if path.name != "spd.py":
            nodes = ast.walk(ast.parse(path.read_text()))
            checked = [n for n in nodes if isinstance(n, ast.Attribute) and n.attr == "_checked"]
            assert not checked, f"{path.name} builds checked SpdMatrix rows itself"
