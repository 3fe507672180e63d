"""The traced benchmark in perfbench/ wraps library functions by name and
imports library names directly; a refactor that removes or moves one of
them must fail here, without running the benchmark."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_exist():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import workloads  # noqa: F401  (imports library names)
        from tracing import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = Tracer(packages=("cycbrauer", "workloads"))
    layers.register(tracer)
    targets = [(owner, attr) for owner, attr, *_ in tracer._targets]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    with tracer.installed():  # raises KeyError on a missing name
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(targets, originals))
    assert all(owner.__dict__[attr] is orig
               for (owner, attr), orig in zip(targets, originals))
