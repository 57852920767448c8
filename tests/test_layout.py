"""Only ``helpers`` reads the package's private layout.

Structural tests read a context's groups and tables through
``helpers.layout`` and the functions beside it, and value tests read only
the public API, so a change of layout is restated in ``helpers`` alone.
"""

from pathlib import Path

from helpers import LAYOUT_NAMES


def test_only_helpers_names_the_layout():
    named = {
        path.name: LAYOUT_NAMES.findall(path.read_text())
        for path in sorted(Path(__file__).parent.glob("*.py"))
        if path.name != "helpers.py"
    }
    assert {name: found for name, found in named.items() if found} == {}
