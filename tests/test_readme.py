"""The ``python`` examples in README.md, run as doctests."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the block's first example, block text)
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
]


def test_readme_has_python_examples():
    assert BLOCKS


# Ids count blocks, so prose edits above a block do not rename its test.
@pytest.mark.parametrize(
    "lineno,block",
    [pytest.param(*b, id=f"block{k}") for k, b in enumerate(BLOCKS)],
)
def test_readme_example_runs(lineno, block):
    parser = doctest.DocTestParser()
    test = parser.get_doctest(block, {}, "README", str(README), lineno)
    assert test.examples
    runner = doctest.DocTestRunner()
    report = []
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
