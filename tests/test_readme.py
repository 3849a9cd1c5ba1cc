"""Every command in README's example blocks runs and exits 0: each
``sigmairr ...`` line through ``cli.main``, and each ``python scripts/...``
line in a scratch directory.  A line is split as a shell would split it,
comments dropped; a ``--out`` file is written into that directory."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sigmairr.cli import main

ROOT = Path(__file__).resolve().parents[1]


def readme_commands(prefix: str) -> list[list[str]]:
    """The argv of each line of a fenced README block that starts with ``prefix``."""
    blocks = (ROOT / "README.md").read_text(encoding="utf-8").split("```")[1::2]
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line, comments=True) for line in lines if line.startswith(prefix)]


CLI_COMMANDS = readme_commands("sigmairr ")
SCRIPT_COMMANDS = readme_commands("python scripts/")


def test_readme_has_examples():
    assert len(CLI_COMMANDS) >= 15 and len(SCRIPT_COMMANDS) >= 3


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=" ".join)
def test_cli_example_runs(capsys, tmp_path, argv):
    args = argv[1:]
    if "--out" in args:
        at = args.index("--out") + 1
        args[at] = str(tmp_path / args[at])
    assert main(args) == 0, capsys.readouterr().err
    assert capsys.readouterr().out or "--out" in args


@pytest.mark.parametrize("argv", SCRIPT_COMMANDS, ids=" ".join)
def test_script_example_runs(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / argv[1]), *argv[2:]], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
