"""scripts/line_coverage.py: which lines stand for which statement."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "line_coverage.py")
spec = importlib.util.spec_from_file_location("line_coverage", SCRIPT)
line_coverage = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_coverage)

SOURCE = '''"""Module docstring."""
import functools


@functools.lru_cache(
    maxsize=None)
def f(x):
    """Function docstring."""
    global Z
    if (x and
            x > 1):
        return [
            x]
    return 0
'''


def test_statements_span_their_headers_and_skip_docstrings_and_globals():
    assert line_coverage.statement_spans(SOURCE) == [
        (2, 2),  # import
        (5, 7),  # decorators and def, up to the body
        (10, 11),  # the if header
        (12, 13),  # a simple statement over two lines
        (14, 14),
    ]
