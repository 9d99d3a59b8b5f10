"""The README's examples run as written: every `macmahon ...` line of the
"Command line" block exits 0, and the "Library quickstart" block executes."""

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
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(_block("Library quickstart", "python"), {})
    assert out.getvalue()
