"""Each demo script, and the README's library quick start and command-line
block, runs to completion against the package in src/."""
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from geoglmb.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # pyproject's filterwarnings does not reach a subprocess: set them here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flags = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]
    done = subprocess.run(
        [sys.executable, *flags, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_library_quick_start_runs(capsys):
    # the first python block under README.md's "## Library quick start"
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("PropertyMetrics(")


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    # the sh block under README.md's "## Command line", its continuations
    # joined; each geoglmb line runs through cli.main with out/ in tmp_path
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert commands and all(argv[0] == "geoglmb" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    for path in ("report.json", "eval/report.json", "plots/plot_w.svg"):
        assert (tmp_path / "out" / path).is_file(), path
