"""The README's python example runs and prints what its comments say, and
each line of its command-line block exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from argudyn.cli import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_its_comments():
    text = README.read_text("utf-8")
    (block,) = re.finditer(r"```python\n(.*?)```", text, re.S)
    code = block.group(1)
    # each print's trailing comment is the line it prints
    expected = re.findall(r"^\s*print\(.*\)\s+# (.*)$", code, re.M)
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        # padded so that a traceback names the README's own line numbers
        source = "\n" * text.count("\n", 0, block.start(1)) + code
        exec(compile(source, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch):
    text = README.read_text("utf-8")
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("argudyn ")]
    assert lines
    # a and b attack each other, and so do c and d: {a} is complete, and
    # {a, c} and {b, d} are stable
    (tmp_path / "f.apx").write_text(
        "".join(f"arg({x}).\n" for x in "abcd")
        + "att(a,b).\natt(b,a).\natt(c,d).\natt(d,c).\n",
        encoding="utf-8",
    )
    (tmp_path / "f.cnf").write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run_cli(shlex.split(line)[1:]) == 0, line
