"""The README's library quick tour and command-line examples run as written."""

import doctest
import re
import shlex
from pathlib import Path

from borbit.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour():
    text = README.read_text(encoding="utf-8")
    (tour,) = re.findall(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S)
    test = doctest.DocTestParser().get_doctest(tour, {}, "quick tour", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.tries >= 10
    assert runner.failures == 0


def test_command_line_examples(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("borbit ")
    ]
    assert len(lines) >= 4
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == EXIT_OK, (line, capsys.readouterr().err)
    assert (tmp_path / "graph.json").is_file()
