"""The traced benchmark in perfbench/ wraps library functions by name and
imports library names directly; a refactor that removes or moves one of
them must fail here, without running the benchmark.  So must a change that
makes one of its ops return an output its own check rejects."""

import sys
from fractions import Fraction
from pathlib import Path

from cycbrauer import oracle
from cycbrauer.scalars import CyclotomicField

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _perfbench():
    """The benchmark's layers, tracing and workloads modules, imported as
    the benchmark imports them (workloads imports library names)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers, tracing, workloads


def test_traced_names_exist():
    layers, tracing, _ = _perfbench()
    tracer = tracing.Tracer(packages=("cycbrauer", "workloads"))
    layers.register(tracer)
    targets = [(owner, attr) for owner, attr, *_ in tracer._targets]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    with tracer.installed():  # raises KeyError on a missing name
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(targets, originals))
    assert all(owner.__dict__[attr] is orig
               for (owner, attr), orig in zip(targets, originals))


def test_rank_methods_are_the_ones_the_benchmark_counts():
    # a traced run files each rank under oracle.rank_method.<method> and
    # reports only the methods layers.RANK_METHODS names
    layers, tracing, _ = _perfbench()
    tracer = tracing.Tracer(packages=("cycbrauer", "workloads"))
    layers.register(tracer)
    F = CyclotomicField(2)
    with tracer.installed():
        for deltas in ([0, 0], [Fraction(5, 7), Fraction(-3, 2)]):
            oracle.semisimple_verdict(2, 2, F, deltas)
    assert oracle._METHODS == layers.RANK_METHODS
    counts = layers.layer_values(tracer, 0.0, 0.0)
    assert [counts["oracle.rank_method." + m] for m in oracle._METHODS] \
        == [1, 1, 0]


def test_every_workload_op_passes_its_check():
    # each op once at the default seed, checked as the benchmark checks it
    _, _, workloads = _perfbench()
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, workloads.DEFAULT_SEED, ROOT):
            assert op.check(op.run()) is None, (name, op.name)
