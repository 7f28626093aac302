"""The README's library example runs and prints what the README says, so
deleting a name that the README promises fails the suite."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == ["[12, 7, 0]", "39"]
    # each print line carries its output as a comment
    assert printed == [line.split("#", 1)[1].strip()
                       for line in blocks[0].splitlines()
                       if line.startswith("print(")]
