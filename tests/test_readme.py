"""The README's python example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
