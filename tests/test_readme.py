"""README's examples run against the current API: the library tour prints what its
comments say, and each command-line example that reads no input file exits 0."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from gme.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# a figure in a print line's comment: "~0.2031" (rounded) or "0.2031..." (truncated)
FIGURE = re.compile(r"#\s*(~?)(-?\d+\.(\d+))(\.\.\.)?")


def _library_tour():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_prints_its_commented_values():
    code = _library_tour()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    checked = 0
    for line, shown in zip(prints, printed):
        if "#" not in line:
            continue
        figure = FIGURE.search(line)
        assert figure is not None, f"no figure in the comment of {line!r}"
        rounded, text, digits, truncated = figure.groups()
        value, unit = float(shown), 10.0 ** -len(digits)
        if truncated:
            assert float(text) <= value < float(text) + unit, (line, shown)
        else:
            assert abs(value - float(text)) <= unit / 2, (line, shown)
        checked += 1
    assert checked > 0


def _cli_examples():
    """README's command-line examples that read no input file, as argument lists."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in commands
            if not any(flag != "--out" and value.endswith(".json") for flag, value in zip(argv, argv[1:]))]


@pytest.mark.parametrize("argv", _cli_examples(), ids=lambda argv: " ".join(argv[:3]))
def test_cli_example_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
