import builtins
import doctest
import importlib
import re
import shlex
from pathlib import Path

import levelalg
from levelalg import cli
from levelalg.classify import R_LEVEL_DIFF, RULES

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


def test_readme_library_overview_names_resolve():
    # every backticked identifier in the "Library overview" table names an
    # attribute of its row's module, of levelalg, or of builtins, so a
    # deleted or renamed function cannot linger in the table
    section = README.read_text().split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(levelalg\.\w+)`\s*\|(.*)\|$", section, re.M)
    assert rows
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        names = [
            name
            for name in re.findall(r"`([^`]+)`", contents)
            if name.isidentifier() and len(name) > 1
        ]
        assert names, module_name
        for name in names:
            assert any(
                hasattr(scope, name) for scope in (module, levelalg, builtins)
            ), (module_name, name)


def test_every_exported_name_exists():
    # a deletion that leaves its name in __all__ would break only
    # `from levelalg import *`
    for name in levelalg.__all__:
        assert hasattr(levelalg, name), name


def test_readme_certificate_table_matches_rules():
    # the schema's rule -> quantities table is the classifier's RULES table
    # plus the R-LEVEL-DIFF row, in the same rule and name order
    section = README.read_text().split("## Certificate JSON schema", 1)[1]
    rows = re.findall(r"^\| `(R-[\w-]+)`\s*\|(.*)\|$", section, re.M)
    table = {rule: tuple(re.findall(r"`(\w+)`", names)) for rule, names in rows}
    names = {rule: names for rule, (names, _) in RULES.items()}
    assert table == {**names, R_LEVEL_DIFF: ("delta_0", "delta_1", "delta_s")}
    assert list(table) == [*RULES, R_LEVEL_DIFF]
