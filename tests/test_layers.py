"""The layering of the verification code, read from the module sources,
the one owner of the sweep cap, the command-line flags the README names,
the two callers of the tableau validator, the tests that start a
process, and what the package namespace holds."""

import argparse
import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import taquin
from taquin.cli import COMMANDS, build_parser
from taquin.sweep import MAX_COUNT, orbit_table, standard_tableaux
from taquin.verify import run_suite

PACKAGE = Path(taquin.__file__).parent
ROOT = PACKAGE.parent.parent


def _package_imports(module: str, module_level: bool = False) -> list[tuple[str, str]]:
    """(module, name) for every name `module` imports from the package,
    relative or absolute, at any depth of its source, or only outside its
    functions if `module_level`."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    in_functions = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
    out = []
    for node in ast.walk(tree):
        if module_level and id(node) in in_functions:
            continue
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


# the only tests that read a private name of the sweep, each mapped to the
# invariant that only a private seam shows, which its docstring names
PRIVATE_SWEEP_SEAMS = {
    ("test_verify.py", "test_standard_tableaux_checks_caps_up_front_and_streams"): "The enumeration is lazy",
    ("test_verify.py", "test_orbit_table_runs_the_kernel_once_per_memo_miss"): "The column memo works",
    ("test_cli.py", "test_count_cap_is_checked_before_enumerating"): "Nothing is enumerated before a cap refusal",
    ("test_cli.py", "test_rank_lane_limit_is_checked_before_enumerating"): "Nothing is enumerated before a lane refusal",
}


def _private_sweep_reads(tree: ast.Module) -> list[ast.AST]:
    """The nodes where a module reads a private `taquin.sweep` name:
    imported from it, read as `sweep._x`, or patched with
    `monkeypatch.setattr(sweep, "_x", ...)`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "taquin.sweep":
            private = any(alias.name.startswith("_") for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            private = node.value.id == "sweep" and node.attr.startswith("_")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and len(node.args) >= 2:
            target, name = node.args[:2]
            private = (
                node.func.attr == "setattr"
                and isinstance(target, ast.Name)
                and target.id == "sweep"
                and isinstance(name, ast.Constant)
                and str(name.value).startswith("_")
            )
        else:
            private = False
        if private:
            out.append(node)
    return out


def test_only_the_allow_listed_tests_read_private_sweep_names():
    # {(file, test or None at module level): the test's docstring}
    found = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {id(node): fn for fn in tree.body if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in _private_sweep_reads(tree):
            fn = owners.get(id(node))
            found[path.name, fn and fn.name] = fn and ast.get_docstring(fn)
    assert set(found) == set(PRIVATE_SWEEP_SEAMS)
    for key, invariant in PRIVATE_SWEEP_SEAMS.items():
        assert (found[key] or "").startswith(invariant), key


# the only tests that start a process, each mapped to what no in-process
# call shows; `cli.main` is tested in-process everywhere else
PROCESS_TESTS = {
    ("test_cli.py", "test_construct_invert_pipe_round_trip"): "only a process runs the module entry's exit code",
    ("test_cli.py", "test_a_reader_gone_before_the_first_write_exits_141_quietly"): "only a process has a stdout fd",
    ("test_cli.py", "test_the_pipe_runs_no_sweep_counts_or_checks"): "a fresh interpreter shows what the pipe loads",
    ("test_demos.py", "test_demo_runs"): "each demo runs as a script, as its reader runs it",
    ("test_demos.py", "test_readme_quick_start_runs"): "the quick start runs as a script, as its reader runs it",
    ("test_layers.py", "test_check_layer_names_load_on_first_use"): "a fresh interpreter shows what loads on first use",
    ("test_tableaux.py", "test_parse_and_promote_keep_the_heap_flat_at_20_cells"): "free lists that earlier tests filled hide growth",
}


def test_only_the_allow_listed_tests_start_a_process():
    # {(file, top-level function, or None at module level)}: a module-level
    # helper that starts a process is not a test on the list
    found = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {id(node): fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and (node.func.value.id, node.func.attr) in {("subprocess", "run"), ("subprocess", "Popen")}
            ):
                found.add((path.name, owners.get(id(node))))
    assert found == set(PROCESS_TESTS)


def test_sweep_caps_have_one_owner():
    # the tableau count is the one cap: no function or command takes a cell cap
    assert MAX_COUNT == 2_000_000
    for command in ("verify", "csp"):
        args = build_parser().parse_args([command, "--n", "2", "--m", "3"])
        assert args.max_count == MAX_COUNT, command
        assert [name for name in vars(args) if name.startswith("max_")] == ["max_count"], command
    for fn in (standard_tableaux, orbit_table, run_suite):
        params = inspect.signature(fn).parameters
        assert params["max_count"].default == MAX_COUNT, fn.__name__
        assert [name for name in params if name.startswith("max_")] == ["max_count"], fn.__name__


def test_readme_names_exactly_the_command_line_flags():
    # every "--" option of the five command parsers, and nothing else but
    # help and pip's own flag, so a removed or renamed flag cannot linger
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme)) - {"--help", "--no-build-isolation"}
    options = set()
    for name, command in COMMANDS.items():
        parser = argparse.ArgumentParser(prog=name)
        command.add_arguments(parser)
        options.update(flag for action in parser._actions for flag in action.option_strings if flag.startswith("--"))
    assert named == options - {"--help"}


def test_the_tableau_validator_has_one_check_order():
    # a grid enters through `from_grid`, rows and dicts through `_fill`;
    # a third caller of `_validate` would be a third check order
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.name != "tableaux.py":
            assert set(re.findall(r"\w+", source)) & {"_validate", "_fill"} == set(), path.name
        for fn in ast.walk(ast.parse(source)):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_validate":
                        callers.add((path.stem, fn.name))
    assert callers == {("tableaux", "from_grid"), ("tableaux", "_fill")}


def test_package_namespace_holds_readme_and_demo_names_and_exceptions():
    # the rule of the package docstring: a public name is an exception, or
    # the README's code (blocks and inline spans) or a demo uses it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    code += [demo.read_text(encoding="utf-8") for demo in sorted((ROOT / "demos").glob("*.py"))]
    used = set(re.findall(r"\w+", "\n".join(code)))
    # dir, not vars: the names of the check layers load on first access
    values = {name: getattr(taquin, name) for name in dir(taquin)}
    public = {name: value for name, value in values.items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert "run_suite" in public and "EnumerationCapError" in public
    exceptions = {name for name, value in public.items() if isinstance(value, type) and issubclass(value, Exception)}
    assert sorted(public.keys() - exceptions - used) == []


# A fresh interpreter imports the package, then takes each name of the
# check layers from it; every assert runs in the child, and the audit hook
# sees each module body that `exec` runs.
LAZY_NAMES_SCRIPT = """
import importlib, sys
from pathlib import Path

ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(Path(getattr(args[0], "co_filename", "")).stem))
import taquin

LAZY = {
    "sequences": (
        "bounded_equivalence", "box_sequence", "column_sequence", "delta_closed_form", "descent_sequence", "descents",
        "elementary_knuth", "inverse_word_sequence", "prefix_terms", "strict_knuth", "tableau_from_box_sequence",
    ),
    "sieving": ("q_hook_at_root", "q_hook_polynomial"),
    "sweep": ("EnumerationCapError", "RankLaneError", "orbit_table"),
    "verify": ("run_suite",),
}
assert not {"sequences", "sieving", "sweep", "verify"} & ran
for module, names in LAZY.items():
    for name in names:
        assert name in dir(taquin) and name not in vars(taquin), name
        namespace = {}
        exec(f"from taquin import {name}", namespace)
        home = importlib.import_module(f"taquin.{module}")
        assert namespace[name] is getattr(home, name) is getattr(taquin, name) is vars(taquin)[name], name
        assert module in ran and sys.modules[f"taquin.{module}"] is home is getattr(taquin, module), name
try:
    taquin.nope
except AttributeError as exc:
    assert str(exc) == "module 'taquin' has no attribute 'nope'", exc
else:
    raise AssertionError("taquin.nope")
print("ok")
"""


def test_check_layer_names_load_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_NAMES_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_cli_and_package_import_no_check_layer_at_module_level():
    # every module the pipe runs
    for module in ("__init__", "cli", "shapes", "tableaux", "words", "orbits"):
        # `from . import verify` is ("", "verify")
        imported = {source or name for source, name in _package_imports(module, module_level=True)}
        assert imported & {"sequences", "verify", "sweep", "sieving"} == set(), module
