"""Fixtures shared by the test modules."""

import sys
from collections import Counter

import pytest

from cycbrauer import diagrams


@pytest.fixture
def strand_calls(monkeypatch):
    """Calls of multiply_diagrams and the skeleton pairs composed by
    _compose_skeletons, through every binding of them in the package."""
    calls = Counter()
    for name, count in (("multiply_diagrams", lambda x, y: 1),
                        ("_compose_skeletons",
                         lambda n, x_succ, y_succ, *rest:
                             len(x_succ) * len(y_succ))):
        orig = getattr(diagrams, name)

        def counted(*args, name=name, orig=orig, count=count):
            calls[name] += count(*args)
            return orig(*args)
        for mod in [mod for key, mod in sys.modules.items()
                    if key.split(".")[0] == "cycbrauer"]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls
