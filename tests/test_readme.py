from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    # every python block in order, in one namespace, as a reader would paste them
    text = README.read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    assert blocks
    namespace = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
