"""The README's examples run as written: every `macmahon ...` line of the
"Command line" block exits 0, and every line the "Library quickstart" block
prints is the value its `# ...` comment shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from macmahon.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section, language):
    # the first fenced block of the given language under the `## section` heading
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", body, re.S)
    assert match, f"no {language} block under {section}"
    return match.group(1)


def test_every_command_line_example_exits_zero():
    lines = [line for line in _block("Command line", "sh").splitlines() if line.strip()]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "macmahon", line
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv[1:]) == 0, line


def test_library_quickstart_runs():
    # every print call writes one line: the value in its `# ...` comment, or,
    # where the comment ends in "...", a line that starts with it
    block = _block("Library quickstart", "python")
    shown = [
        line.partition("#")[2].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(block, {})
    printed = out.getvalue().splitlines()
    assert shown and len(printed) == len(shown)
    for line, value in zip(printed, shown):
        if value.endswith("..."):
            assert line.startswith(value[:-3]), (line, value)
        else:
            assert line == value
