"""The README's library quick tour runs as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour():
    text = README.read_text(encoding="utf-8")
    (tour,) = re.findall(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S)
    test = doctest.DocTestParser().get_doctest(tour, {}, "quick tour", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.tries >= 10
    assert runner.failures == 0
