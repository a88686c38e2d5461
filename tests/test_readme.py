import doctest
import re
import shlex
from pathlib import Path

from levelalg import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_cli_lines_exit_as_stated(capsys):
    # every `levelalg ...` line of an sh block returns the exit code its
    # comment states (`# exit N`), or 0 when it states none
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    commands = [line for line in lines if line.startswith("levelalg ")]
    assert commands
    for line in commands:
        stated = re.search(r"#\s*exit (\d+)", line)
        expected = int(stated.group(1)) if stated else 0
        assert cli.run(shlex.split(line, comments=True)[1:]) == expected, line
    capsys.readouterr()
