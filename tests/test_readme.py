"""README's ```python blocks run, in order and in one namespace, as a reader
would paste them, so that the documented calls cannot rot."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_python_blocks_run_in_order():
    assert len(BLOCKS) >= 3
    namespace = {}
    for i, block in enumerate(BLOCKS, 1):
        exec(compile(block, f"README.md, python block {i}", "exec"), namespace)
