"""
The README's `>>>` examples, run as doctests.

Each fenced block that holds a `>>>` prompt is one doctest, so the closing
fence is never read as expected output. Blocks share no names. A case is
named after the `##` section it sits in, so editing the README above it
does not rename it.
"""
import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
SECTION = re.compile(r"^## (.+)$", re.MULTILINE)


def examples() -> list:
    """One case per block with a prompt: the line the block starts on, and its
    text, named by the slug of the nearest `##` heading above it."""
    text = README.read_text(encoding="utf-8")
    cases = []
    for m in FENCE.finditer(text):
        if ">>>" in m.group(1):
            line = text.count("\n", 0, m.start(1)) + 1
            heading = [h.group(1) for h in SECTION.finditer(text, 0, m.start())][-1]
            slug = re.sub(r"\W+", "-", heading.lower()).strip("-")
            cases.append(pytest.param(line, m.group(1), id=slug))
    return cases


def test_readme_has_examples():
    assert len(examples()) >= 2


@pytest.mark.parametrize("line, source", examples())
def test_readme_example(line, source):
    name = f"{README.name}:{line}"
    test = doctest.DocTestParser().get_doctest(source, {}, name, str(README), line - 1)
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
