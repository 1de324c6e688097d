"""README's python blocks run, in order, in one namespace, as a reader
would paste them; a rename that leaves the quick start behind fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert len(blocks) >= 3
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
