"""The README's worked examples match what the package prints and returns."""

import os

from cuplength import Gf2Polynomial, full_report, height_direct
from cuplength.cli import EXIT_OK, main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def fenced_block(text: str, opening: str) -> str:
    """The body of the first fenced block whose first line is `opening`."""
    start = text.index(opening) + len(opening)
    return text[start : text.index("```", start)]


def test_readme_bounds_example_is_verbatim_output(capsys):
    with open(README) as fh:
        block = fenced_block(fh.read(), "```\n$ cuplength bounds 9 3\n")
    assert main(["bounds", "9", "3"]) == EXIT_OK
    assert capsys.readouterr().out == block


def test_readme_library_snippet_values():
    with open(README) as fh:
        snippet = fenced_block(fh.read(), "```python\n")
    namespace = {}
    exec(snippet, namespace)
    pres, ctx, w2 = namespace["pres"], namespace["ctx"], namespace["w2"]
    assert pres.betti()[:4] == [1, 1, 2, 3]
    assert "# [1, 1, 2, 3, ...]" in snippet
    assert w2 == Gf2Polynomial.variable((2, 3), 2)
    assert height_direct(ctx, w2).height == 4
    report = namespace["report"]
    assert report == full_report(9, 3)
    assert (report.lower, report.upper) == (5, 7)
    assert (report.paper_lower, report.paper_upper) == (5, 8)
    assert "# 4\n" in snippet and "# 5, 7\n" in snippet and "# 5, 8 " in snippet
