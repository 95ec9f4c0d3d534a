"""The README's Python examples run as written and print what they say."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_every_python_block_runs_and_the_quick_start_prints_its_values():
    blocks = _python_blocks()
    assert blocks, "README has no python block"
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
        printed.append(out.getvalue().splitlines())
    shape, u0, verdict = printed[0]
    assert shape == "(41, 1)"
    assert float(u0) == -1.0
    status, margin = verdict.split()
    assert status == "pass"
    assert math.isclose(float(margin), 1.0 - math.log(2.0), rel_tol=1e-12)
