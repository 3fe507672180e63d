"""The traced benchmark in perfbench/ wraps library functions by name and
imports library names directly; a refactor that removes or moves one of
them must fail here, without running the benchmark.  So must a change that
makes one of its ops return an output its own check rejects."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_every_workload_op_passes_its_check():
    # each op once at the default seed, checked as the benchmark checks it
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, workloads.DEFAULT_SEED, ROOT):
            assert op.check(op.run()) is None, (name, op.name)
