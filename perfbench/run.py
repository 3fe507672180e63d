"""Benchmark of the cycbrauer library, driven from outside through its
public functions.

    python3 perfbench/run.py --workload oracle-cold --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): oracle-cold, concord-sweep,
closed-form, or ``all`` to run the three in sequence in one process.

--trace 0 runs the workload's ops in a closed loop (one op at a time, one
process) for --seconds and reports the end-to-end metrics, with a background
thread timing a reference loop to measure the machine's speed meanwhile
(see SpeedProbe).  --trace 1 runs
one untraced pass and then one traced pass of the same ops, a fixed amount
of work so that every count repeats exactly for a seed, and reports the
per-layer metrics and the tracing overhead.  Every output is checked.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a detail object with
the workload-specific metrics, sample counts and the machine settings.
Spans of a traced run are written to .perfbench_out/ at the checkout root.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4
REF_PERIOD = 0.25  # seconds between two timings of the reference loop
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_threads():
    """BLAS/OpenMP threads: the caller's setting capped at nproc, else 1."""
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, "1"))
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, _nproc())))


def setup(workload, seed):
    """Imports, field construction and input generation: everything up to
    the first timed call.  Returns (ops by workload, seconds since start)."""
    _pin_threads()
    sys.pycache_prefix = str(OUT / "pycache")
    if not (ROOT / "src" / "cycbrauer" / "__init__.py").is_file():
        raise SystemExit("perfbench: no cycbrauer sources under %s"
                         % (ROOT / "src"))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    names = workloads.WORKLOADS if workload == "all" else (workload,)
    ops = {w: workloads.build(w, seed, ROOT) for w in names}
    return ops, perf_counter() - START


def probe_setup(workload, seed):
    """Median set-up time over fresh interpreters (and this one)."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=120, check=True)
        times.append(float(res.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def reference_loop():
    """Fixed pure-Python work (about 2 ms) that uses no library code: an
    integer loop, a Fraction recurrence and a tuple-keyed dict, the three
    kinds of work the library's hot paths do."""
    x = 0
    for i in range(8000):
        x += i * i % 7
    acc = Fraction(0)
    for i in range(1, 90):
        acc = acc * Fraction(i, i + 7) + Fraction(1, i)
    table = {}
    for i in range(1500):
        table[(i, i & 7, i & 3)] = (i, x)
    return acc, len(table)


class SpeedProbe:
    """Times the reference loop every REF_PERIOD seconds, in a background
    thread, while the ops run.

    On a shared host the speed of the machine drifts by tens of percent
    over minutes, so wall times of two runs are not comparable.  The loop
    holds the interpreter lock for about 2 ms, under the 5 ms switch
    interval, so its timing is not disturbed by the op it interleaves with
    and costs the op about 1%.  A pass divided by the median loop time
    (``pass_ref``) cancels most of the drift.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe")

    def _sample(self):
        t0 = perf_counter()
        reference_loop()
        self.samples.append(perf_counter() - t0)

    def _run(self):
        while not self._stop.wait(REF_PERIOD):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("speed probe did not stop")
        self._sample()

    def median(self):
        return statistics.median(self.samples)


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class Results:
    def __init__(self, ops):
        self.ops = ops
        self.samples = {op.name: [] for op in ops}
        self.attempted = 0
        self.failures = []

    def run(self, op, tracer=None):
        """Run one op (timed), check its output, return its seconds."""
        gc.collect()
        if tracer is not None:
            tracer.op = "%s#%d" % (op.name, len(self.samples[op.name]))
        self.attempted += 1
        t0 = perf_counter()
        dt = None
        try:
            result = op.run()
            dt = perf_counter() - t0
            reason = op.check(result)
        except Exception:  # a failed op is counted, the run goes on
            reason = traceback.format_exc(limit=3)
        if dt is None:
            dt = perf_counter() - t0
        if reason is not None:
            self.failures.append((op.name, reason))
        self.samples[op.name].append(dt)
        return dt

    def closed_loop(self, seconds):
        """Passes over the ops until the deadline.  The first pass is always
        complete; after it, an op is skipped when its median so far says it
        would end past the deadline."""
        deadline = perf_counter() + seconds
        first = True
        while True:
            ran = 0
            for op in self.ops:
                past = self.samples[op.name]
                if not first and (not past or perf_counter()
                                  + statistics.median(past) > deadline):
                    continue
                self.run(op)
                ran += 1
            first = False
            if not ran or perf_counter() >= deadline:
                return

    def median(self, op):
        return statistics.median(self.samples[op.name])

    def pass_s(self):
        return sum(self.median(op) for op in self.ops)


def detail_metrics(workload, res):
    """The workload-specific end-to-end metrics (detail line)."""
    def group(name):
        return [op for op in res.ops if op.group == name]

    out = {}
    if workload == "oracle-cold":
        for g in ("full-rank", "radical"):
            meds = [res.median(op) for op in group(g)]
            out["oracle_verdict_s." + g] = (sum(meds) / len(meds), "s")
    elif workload == "concord-sweep":
        (op,) = group("sweep")
        out["concord_points_per_s"] = (op.units / res.median(op), "1/s")
    else:
        dec = group("decide")
        out["decide_per_s"] = (sum(op.units for op in dec)
                               / sum(res.median(op) for op in dec), "1/s")
        out["gram_forms_s"] = (sum(res.median(op) for op in group("gram")), "s")
    return out


def environment():
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": _nproc(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workers": 1}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_traced(workload, seed, ops):
    """One untraced and one traced pass; returns (results, layer metrics)."""
    import layers
    from tracing import Tracer
    res = Results(ops)
    untraced = sum(res.run(op) for op in ops)
    tracer = Tracer(packages=("cycbrauer", "workloads"))
    layers.register(tracer)
    with tracer.installed():
        traced = sum(res.run(op, tracer) for op in ops)
    values = layers.layer_values(tracer, untraced, traced)
    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                   "spans": tracer.span_records(),
                   "self_seconds": dict(tracer.self_seconds),
                   "counts": dict(tracer.counts)}, fh)
    metrics = {k: _metric(v, layers.LAYER_METRICS[k][0])
               for k, v in values.items()}
    return res, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("oracle-cold", "concord-sweep", "closed-form",
                             "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    all_ops, setup_main = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_main))
        return 0
    setup_times = [setup_main]
    if not args.trace:
        setup_times += probe_setup(args.workload, args.seed)
    setup_s = statistics.median(setup_times)

    attempted = failed = 0
    final = {}
    for workload, ops in all_ops.items():
        if args.trace:
            res, metrics = run_traced(workload, args.seed, ops)
        else:
            res = Results(ops)
            with SpeedProbe() as probe:
                res.closed_loop(args.seconds / len(all_ops))
            metrics = {
                "pass_ref": _metric(res.pass_s() / probe.median(), "ref"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "MiB"),
                "setup_s": _metric(setup_s, "s"),
            }
        end_to_end = dict(metrics)
        if not args.trace:
            metrics["pass_s"] = _metric(res.pass_s(), "s")
            metrics["ref_s"] = _metric(probe.median(), "s")
            for k, (v, unit) in detail_metrics(workload, res).items():
                metrics[k] = _metric(v, unit)
        for name, why in res.failures:
            print("FAILED %s %s: %s" % (workload, name, why), file=sys.stderr)
        detail = {
            "workload": workload, "seed": args.seed, "trace": args.trace,
            "metrics": metrics,
            "ops": res.attempted, "failed_ops": len(res.failures),
            "op_seconds": res.samples,
            "setup_samples_s": setup_times,
            "environment": environment(),
        }
        if args.trace:
            import layers
            detail["layer_mapping"] = {k: v[1] for k, v
                                       in layers.LAYER_METRICS.items()}
        print(json.dumps(detail, sort_keys=True))
        attempted += res.attempted
        failed += len(res.failures)
        final.update(end_to_end if len(all_ops) == 1 else
                     {"%s.%s" % (workload, k): v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
