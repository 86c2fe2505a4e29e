"""Every ``python`` code block of README.md runs against the package, so
the quick tour cannot drift from the API."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})
