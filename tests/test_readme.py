"""Every command of the README's CLI block runs, exits 0 and writes strict JSON."""

import argparse
import json
import shlex
from pathlib import Path

import pytest

from kernelscope import cli

_README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_block_commands() -> list[str]:
    block = _README.read_text().split("## CLI", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("kernelscope ")]


def test_cli_block_is_found():
    assert len(_cli_block_commands()) >= 10


def test_cli_block_runs_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    ran = {shlex.split(line)[1] for line in _cli_block_commands()}
    assert set(sub.choices) <= ran, sorted(set(sub.choices) - ran)


@pytest.mark.parametrize("line", _cli_block_commands())
def test_readme_command_runs(line, tmp_path):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / Path(argv[i]).name)
    else:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.run(argv) == 0
    assert any(tmp_path.iterdir())
    for path in tmp_path.iterdir():
        text = path.read_text()
        if text.startswith("{"):
            json.loads(text, parse_constant=_not_json)


def _not_json(name: str):
    # json.loads accepts NaN, Infinity and -Infinity; RFC 8259 and jq do not
    raise ValueError(f"{name} is not a JSON number")
