"""Every ```python block of README.md runs as written, and so does every
``ptdrsc ...`` command of its ```sh blocks."""

import pathlib
import re
import shlex

import pytest

from ptdrsc import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
COMMANDS = []
for block in re.findall(r"^```sh\n(.*?)^```", TEXT, flags=re.M | re.S):
    for line in block.replace("\\\n", " ").splitlines():  # join continuations
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["ptdrsc"]:
            COMMANDS.append(argv)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 7


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:2]) for a in COMMANDS])
def test_readme_cli_example_runs(argv, capsysbinary):
    code = cli.main(argv[1:])
    out, err = capsysbinary.readouterr()
    assert code == 0, err.decode()
    assert out
