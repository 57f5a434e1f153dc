"""Every demo script, the README's quick start and the README's command
lines run to completion against the package source, so a removed or
renamed public name or option cannot break any of them unnoticed."""

import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from taquin import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "2431"


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Each line of the README's `sh` block under "## Command line", run
    in-process: a `|` feeds one command's stdout to the next one's stdin,
    t.json holds the first construct's output, every command exits 0, and
    a "# prints X" comment is checked."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    checked = 0
    for i, line in enumerate(block.splitlines()):
        command, _, comment = line.partition("#")
        out = ""
        for stage in command.split("|"):
            argv = shlex.split(stage)
            assert argv[0] == "taquin", line
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            assert cli.main(argv[1:]) == 0, (line, capsys.readouterr().err)
            out = capsys.readouterr().out
        if i == 0:
            (tmp_path / "t.json").write_text(out)
        printed = re.match(r"\s*prints (\S+)", comment)
        if printed:
            assert out == printed.group(1) + "\n", line
            checked += 1
    assert checked
