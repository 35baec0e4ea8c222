"""README.md checked against the package: its ``python`` examples run as
doctests, and its Layout table names only what exists."""

import doctest
import importlib
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


def test_layout_table_names_exist():
    # every backticked name in a row is the row's module's or one of its
    # exported classes', so a deleted name cannot stay documented
    layout = TEXT[TEXT.index("\n## Layout\n") :]
    rows = re.findall(r"^\| `(assocnf\.\w+)` +\|(.*)\|$", layout, re.M)
    assert len(rows) == 4
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        exported = (getattr(module, name) for name in getattr(module, "__all__", ()))
        owners = [module, *(x for x in exported if isinstance(x, type))]
        for name in re.findall(r"`([A-Za-z_]\w*)`", contents):
            if not any(hasattr(owner, name) for owner in owners):
                missing.append(f"{module_name}: {name}")
    assert missing == []
