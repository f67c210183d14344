"""The README's fenced ``python`` examples run against the current API.

A name or argument removed from the library but left in the documentation
fails here instead of in a reader's session.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    text = README.read_text()
    examples = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert examples
    for source in examples:
        exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
