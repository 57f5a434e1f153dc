"""The layering of the verification code, read from the module sources, and
the one owner of the sweep caps."""

import ast
import inspect
from pathlib import Path

import taquin
from taquin.cli import build_parser
from taquin.sweep import MAX_CELLS, MAX_COUNT, orbit_table, standard_tableaux
from taquin.verify import run_suite

PACKAGE = Path(taquin.__file__).parent


def _package_imports(module: str) -> list[tuple[str, str]]:
    """(module, name) for every name `module` imports from the package,
    relative or absolute, at any depth of its source."""
    out = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if not source.startswith("taquin"):
                    continue
                source = source.removeprefix("taquin").removeprefix(".")
            out.extend((source, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend((alias.name.removeprefix("taquin."), "*") for alias in node.names if alias.name.startswith("taquin"))
    return out


def test_sieving_imports_only_shapes():
    assert {source for source, _ in _package_imports("sieving")} == {"shapes"}


def test_sweep_imports_only_shapes_tableaux_and_sieving():
    assert {source for source, _ in _package_imports("sweep")} == {"shapes", "tableaux", "sieving"}


def test_verify_imports_no_private_name_of_the_sweep_or_the_counts():
    imports = _package_imports("verify")
    assert {source for source, _ in imports} >= {"sweep", "sieving"}
    assert [(source, name) for source, name in imports if source in ("sweep", "sieving") and name.startswith("_")] == []


def test_sweep_caps_have_one_owner():
    assert (MAX_CELLS, MAX_COUNT) == (20, 1_000_000)
    for command in ("verify", "csp"):
        args = build_parser(command).parse_args([command, "--n", "2", "--m", "3"])
        assert (args.max_cells, args.max_count) == (MAX_CELLS, MAX_COUNT), command
    for fn in (standard_tableaux, orbit_table, run_suite):
        params = inspect.signature(fn).parameters
        assert (params["max_cells"].default, params["max_count"].default) == (MAX_CELLS, MAX_COUNT), fn.__name__
