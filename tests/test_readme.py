"""README's "Library surface" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library surface"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_surface_example_runs():
    namespace = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    assert namespace["report"].trials_used == 10_000
    assert namespace["report"].sum_se > 0
    assert namespace["approx"].sum_se > 0
