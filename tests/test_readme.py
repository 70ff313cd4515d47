"""README examples: every `$ structfn ...` transcript prints exactly what the README
shows, and the library quickstart evaluates to the values written under it."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from structfn.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"


def readme_transcripts():
    """(argv, expected stdout) for each `$ structfn` line inside a fenced block.

    A transcript's output runs to the next `$ ` line or the end of the block;
    trailing blank lines separate transcripts and are not output.
    """
    transcripts = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        command, output = None, []
        for line in block.splitlines() + ["$ "]:
            if line.startswith("$ "):
                if command is not None:
                    while output and not output[-1]:
                        output.pop()
                    transcripts.append((shlex.split(command)[1:], "\n".join(output) + "\n"))
                command, output = (line[2:], []) if line.startswith("$ structfn ") else (None, [])
            elif command is not None:
                output.append(line)
    return transcripts


TRANSCRIPTS = readme_transcripts()


def test_readme_has_transcripts():
    assert len(TRANSCRIPTS) >= 4


@pytest.mark.parametrize("argv, expected", TRANSCRIPTS, ids=[" ".join(a) for a, _ in TRANSCRIPTS])
def test_transcript_matches_stdout(argv, expected, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def readme_quickstart() -> str:
    """The fenced `python` block of the "Library quickstart" section."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```", section, re.M | re.S).group(1)


def test_library_quickstart():
    """Each bare expression followed by a `# ...` line has that line as its repr."""
    source = readme_quickstart()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        comment = lines[node.end_lineno] if node.end_lineno < len(lines) else ""
        if isinstance(node, ast.Expr) and comment.startswith("# "):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert repr(value) == comment[2:]
            checked += 1
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked >= 3
