"""The README's library quick start runs as printed."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def quick_start():
    """The python block under the "Quick start (library)" heading."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), "README.md", "exec"), {})
    supports, solved, residual = out.getvalue().splitlines()
    assert supports == "[3 4 5] [3 4 5]" and solved.endswith(" True")
    assert float(residual) <= 1e-10
