"""The README's library example runs and prints what the README says, and
the names it lists as kept on purpose resolve, so deleting a name that the
README promises fails the suite."""

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


def kept_on_purpose_names() -> list[str]:
    """The dotted names in the README's list of public names kept on
    purpose, without the file paths it also mentions."""
    text = README.read_text()
    start = text.index("Some public names have no caller")
    # the list ends at the first blank line after its first bullet
    section = text[start:text.index("\n\n", text.index("\n* ", start))]
    return [name for name in re.findall(r"`([\w.]+)`", section)
            if "." in name and not name.endswith(".py")]


def test_readme_kept_on_purpose_names_resolve():
    import nilcert

    names = kept_on_purpose_names()
    assert {"autos.line_fixed_by", "Matrix.from_flat",
            "qlinalg.det", "Matrix.__init__"} <= set(names)
    for name in names:
        # the head is a module of the package (qlinalg.det) or a name it
        # exports (Matrix.from_flat)
        obj = nilcert
        for attr in name.split("."):
            obj = getattr(obj, attr, None)
            assert obj is not None, f"README names {name}, which is gone"
