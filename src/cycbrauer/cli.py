"""Command line interface.

Exit codes: 0 success, 1 usage error (including a malformed --delta value,
a --char that is neither 0 nor a prime, an unknown --variant, or an
unreadable or malformed --config file), 2 computational failure (cap
exceeded, no root of unity in the requested characteristic, unsupported
case), 3 when a verification subcommand finds failures (relation failures,
Gram shape or equivariance violations, generic-stratum concordance
disagreements, internal cross-check failures).

Scalar syntax for --delta: comma-separated components delta_0..delta_{m-1};
each component is a rational like 7/2 or a colon-separated coefficient
vector over the power basis of the root of unity, like 1:2/3.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .criterion import VARIANTS, bar_deltas, decide, g_mu, z_set, z_tilde
from .diagrams import (OFF_LOCUS_NOTE, NumericParams, SymbolicParams,
                       associativity_check, basis_size, deltas_admissible,
                       verify_prop_eta, verify_relations)
from .gram import (cell_gram, equivariance_check, gram_big, shape_check,
                   single_box_gram)
from .oracle import (concordance_report, concordance_sweep, report_csv,
                     semisimple_verdict)
from .partitions import admissible_set, check_multipartition, \
    multipartitions, t_set
from .scalars import CyclotomicField, NoRootError, field_with_root, is_prime
from .wreath import enumerate_group, group_order

USAGE_ERROR, COMPUTE_ERROR, VERIFY_FAILED = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print("error: %s" % message, file=sys.stderr)
        sys.exit(USAGE_ERROR)


class UsageError(Exception):
    """Malformed input found after parsing (a --delta or --config value);
    reported like an argparse error, with exit code 1."""


def _int_arg(ok, want):
    """argparse type: an integer for which ok(value) holds, described by
    want in the error message."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(
                "expected %s, got %r" % (want, text))
        return value
    return parse


POSITIVE_ARG = _int_arg(lambda v: v >= 1, "an integer >= 1")
N_ARG = _int_arg(lambda v: v >= 0, "an integer >= 0")
CHAR_ARG = _int_arg(lambda v: v == 0 or is_prime(v), "0 or a prime")
# --variant of zset: the decide variant names and the set names they use
ZSET_VARIANTS = {"printed-z": "printed", "printed": "printed",
                 "combinatorial-rho": "combinatorial",
                 "combinatorial": "combinatorial"}


def _pairs(text):
    """argparse type for --pairs: semicolon-separated m,n pairs."""
    grid = []
    for chunk in text.split(";"):
        try:
            m, n = chunk.split(",")
            grid.append((POSITIVE_ARG(m), N_ARG(n)))
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(
                "bad pair %r: expected m,n with m >= 1 and n >= 0"
                % chunk) from None
    return grid


def _parse_deltas(field, m, text):
    """The --delta value: m comma-separated components, each a rational or
    a colon-separated coefficient vector."""
    try:
        parts = [[Fraction(c) for c in t.split(":")] for t in text.split(",")]
    except (ValueError, ZeroDivisionError):
        parts = None
    if parts is None or len(parts) != m:
        raise UsageError("argument --delta: expected %d comma-separated "
                         "rationals or coefficient vectors (like 7/2 or "
                         "1:2/3), got %r" % (m, text))
    return [field.element(c) if len(c) > 1 else field.embed(c[0])
            for c in parts]


def _emit(obj, out):
    payload = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _params(args, m):
    field = field_with_root(args.char, m)
    if args.delta is None:
        return SymbolicParams(m, field), field, None
    deltas = _parse_deltas(field, m, args.delta)
    return NumericParams(field, deltas), field, deltas


def main(argv=None):
    top = _Parser(prog="cycbrauer",
                  description="exact computations in cyclotomic Brauer algebras")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text, mn=True, char_delta=False, variants=None):
        p = sub.add_parser(name, help=help_text)
        if mn:
            p.add_argument("--m", type=POSITIVE_ARG, required=True)
            p.add_argument("--n", type=N_ARG, required=True)
        if char_delta:
            p.add_argument("--char", type=CHAR_ARG, default=0)
            p.add_argument("--delta", type=str, default=None)
        if variants:
            p.add_argument("--variant", choices=variants, default="printed-z")
        p.add_argument("--out", type=str, default=None)
        return p

    add("relations", "verify the 17 defining relations on diagrams")
    p = add("assoc", "sample associativity of the diagram product",
            char_delta=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    add("dim", "basis size m^n (2n-1)!!")
    p = add("group", "wreath group order and optional element list")
    p.add_argument("--list", action="store_true")
    p.add_argument("--cap", type=int, default=10 ** 6)
    p = add("zset", "the integer set Z_{m,n} (or its 1/m scaling)", mn=True,
            variants=ZSET_VARIANTS)
    p.add_argument("--tilde", action="store_true",
                   help="emit the unscaled set")
    p = sub.add_parser("admissible", help="admissible two-box extensions of mu")
    p.add_argument("--m", type=POSITIVE_ARG, required=True)
    p.add_argument("--mu", type=str, required=True,
                   help="JSON multipartition, e.g. [[1],[]]")
    p.add_argument("--out", type=str, default=None)
    add("gmu", "cell factors g_mu over the multipartitions of n-2",
        char_delta=True)
    p = sub.add_parser("bar-delta", help="transformed parameters bar_delta_i")
    p.add_argument("--m", type=POSITIVE_ARG, required=True)
    p.add_argument("--char", type=CHAR_ARG, default=0)
    p.add_argument("--delta", type=str, required=True)
    p.add_argument("--out", type=str, default=None)
    add("decide", "semisimplicity verdict", char_delta=True,
        variants=VARIANTS)
    p = add("gram", "iota-form Gram matrix on the one-arc module V",
            char_delta=True)
    p.add_argument("--cap", type=int, default=5000)
    p.add_argument("--skip-equivariance", action="store_true")
    p = add("cell-gram", "cellular Gram matrix of the cell (1, mu')",
            char_delta=True)
    p.add_argument("--mu", type=str, required=True)
    p = sub.add_parser("single-box",
                       help="3m x 3m Gram matrix of the one-box cell at n=3")
    p.add_argument("--m", type=POSITIVE_ARG, required=True)
    p.add_argument("--out", type=str, default=None)
    p = add("oracle", "trace-form radical verdict (characteristic 0)",
            char_delta=True)
    p.add_argument("--cap", type=int, default=500)
    p = sub.add_parser("concord",
                       help="concordance sweep: criterion variants vs oracle")
    p.add_argument("--pairs", type=_pairs, default=None,
                   help="semicolon list of m,n pairs, e.g. 2,2;3,2")
    p.add_argument("--config", type=str, default=None,
                   help="JSON config with keys grid/seed/cap/"
                        "generic_points/hyperplane_points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=500)
    p.add_argument("--jobs", type=POSITIVE_ARG, default=1)
    p.add_argument("--csv", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p = sub.add_parser("prop-eta",
                       help="degree-2 eigenvector decomposition check")
    p.add_argument("--m", type=POSITIVE_ARG, required=True)
    p.add_argument("--out", type=str, default=None)
    p = sub.add_parser("tset", help="one-box addition contents vs closed form")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--out", type=str, default=None)

    args = top.parse_args(argv)
    try:
        return _dispatch(args)
    except UsageError as exc:
        top.error(str(exc))
    except (NoRootError, ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return COMPUTE_ERROR


def _dispatch(args):
    cmd = args.command

    if cmd == "relations":
        res = verify_relations(args.m, args.n)
        bad = [r for r in res if not r["ok"]]
        _emit({"m": args.m, "n": args.n, "checked": len(res),
               "failures": bad}, args.out)
        return VERIFY_FAILED if bad else 0

    if cmd == "assoc":
        if args.delta is None:
            field = field_with_root(args.char, args.m)
            params = SymbolicParams(args.m, field, symmetric=True)
        else:
            params, field, _ = _params(args, args.m)
        rep = associativity_check(args.m, args.n, params,
                                  trials=args.trials, seed=args.seed)
        out = dict(rep)
        out["witnesses"] = [[d.to_json() for d in w] for w in rep["witnesses"]]
        _emit(out, args.out)
        return 0 if rep["ok"] else VERIFY_FAILED

    if cmd == "dim":
        _emit({"m": args.m, "n": args.n, "dimension": basis_size(args.m, args.n)},
              args.out)
        return 0

    if cmd == "group":
        obj = {"m": args.m, "n": args.n, "order": group_order(args.m, args.n)}
        if args.list:
            obj["elements"] = [g.to_json()
                               for g in enumerate_group(args.m, args.n, args.cap)]
        _emit(obj, args.out)
        return 0

    if cmd == "zset":
        variant = ZSET_VARIANTS[args.variant]
        s = z_tilde(args.m, args.n, variant) if args.tilde \
            else z_set(args.m, args.n, variant)
        _emit(sorted(s), args.out)
        return 0

    if cmd == "admissible":
        mu = check_multipartition(json.loads(args.mu), args.m)
        pairs = admissible_set(mu, args.m)
        _emit([{"lambda": [list(p) for p in pr.lam], "condition": pr.condition,
                "content": pr.content} for pr in pairs], args.out)
        return 0

    if cmd == "gmu":
        field = field_with_root(args.char, args.m)
        if args.delta is None:
            raise ValueError("--delta required")
        deltas = _parse_deltas(field, args.m, args.delta)
        out = [{"mu": [list(p) for p in mu],
                "g_mu": str(g_mu(field, deltas, mu))}
               for mu in multipartitions(args.m, args.n - 2)]
        _emit({"m": args.m, "n": args.n, "values": out}, args.out)
        return 0

    if cmd == "bar-delta":
        field = field_with_root(args.char, args.m)
        deltas = _parse_deltas(field, args.m, args.delta)
        _emit([str(b) for b in bar_deltas(field, deltas)], args.out)
        return 0

    if cmd == "decide":
        field = field_with_root(args.char, args.m)
        if args.delta is None:
            raise ValueError("--delta required")
        deltas = _parse_deltas(field, args.m, args.delta)
        v = decide(args.m, args.n, field, deltas, args.variant).to_json()
        if not deltas_admissible(deltas):
            v.update(admissible=False, note=OFF_LOCUS_NOTE)
        _emit(v, args.out)
        return 0

    if cmd == "gram":
        params, field, _ = _params(args, args.m)
        gm = gram_big(args.m, args.n, params, args.cap)
        bad = shape_check(gm, params)
        obj = gm.to_json()
        obj["shape_violations"] = bad
        if not args.skip_equivariance:
            eq_params = params
            if args.delta is None and args.m >= 3:
                # generic symbolic parameters are off the admissible locus
                # for m >= 3, where the commutation identities cannot hold;
                # check at a generic admissible point instead
                eq_params = SymbolicParams(args.m, field, symmetric=True)
            rep = equivariance_check(args.m, args.n, eq_params, args.cap,
                                     gm if eq_params is params else None)
            obj["equivariance"] = rep
            if not rep["ok"]:
                bad = bad or rep["failures"]
        _emit(obj, args.out)
        return VERIFY_FAILED if bad else 0

    if cmd == "cell-gram":
        params, field, _ = _params(args, args.m)
        mu = check_multipartition(json.loads(args.mu), args.m)
        gm = cell_gram(args.m, args.n, mu, params)
        _emit(gm.to_json(), args.out)
        return 0

    if cmd == "single-box":
        gm, rep = single_box_gram(args.m)
        obj = gm.to_json()
        obj["report"] = rep
        _emit(obj, args.out)
        return 0 if rep["matches_printed_at_zero"] else VERIFY_FAILED

    if cmd == "oracle":
        if args.char:
            raise ValueError("oracle supports characteristic 0 only")
        field = CyclotomicField(args.m)
        if args.delta is None:
            raise ValueError("--delta required")
        deltas = _parse_deltas(field, args.m, args.delta)
        v = semisimple_verdict(args.m, args.n, field, deltas, cap=args.cap)
        _emit(v, args.out)
        return COMPUTE_ERROR if v["verdict"] == "unsupported" else 0

    if cmd == "concord":
        return _run_concord(args)

    if cmd == "prop-eta":
        rep = verify_prop_eta(args.m)
        _emit(rep, args.out)
        return 0 if rep["ok"] else VERIFY_FAILED

    if cmd == "tset":
        brute, closed, equal = t_set(args.a)
        _emit({"a": args.a, "brute": sorted(brute), "closed": sorted(closed),
               "equal": equal}, args.out)
        return 0 if equal else VERIFY_FAILED

    raise ValueError("unknown command %r" % cmd)


# config key -> lowest allowed value (None: any integer)
_CONCORD_INTS = {"seed": None, "cap": None, "generic_points": 0,
                 "hyperplane_points": 0}


def _is_int(value, low=None):
    return (isinstance(value, int) and not isinstance(value, bool)
            and (low is None or value >= low))


def _is_rational(value):
    try:
        Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        return False
    return True


def _check_grid_item(item):
    """A config grid item is [m, n] or {"m": m, "n": n, "deltas": [...]},
    with m >= 1 and n >= 0 as for --pairs and m rationals per delta."""
    if isinstance(item, dict):
        pair, vectors = [item.get("m"), item.get("n")], item.get("deltas", [])
    else:
        pair, vectors = item, []
    ok = (isinstance(pair, list) and len(pair) == 2
          and _is_int(pair[0], 1) and _is_int(pair[1], 0)
          and isinstance(vectors, list)
          and all(isinstance(v, list) and len(v) == pair[0]
                  and all(map(_is_rational, v)) for v in vectors))
    if not ok:
        raise UsageError("config key 'grid': bad item %s: expected [m, n] or "
                         "{\"m\": m, \"n\": n, \"deltas\": [...]} with "
                         "m >= 1, n >= 0 and m rationals per delta vector"
                         % json.dumps(item))


def _read_config(path):
    """The --config file as (grid, settings), checked at the boundary."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read config %r: %s"
                         % (path, exc.strerror)) from None
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise UsageError("config is not JSON: %s" % exc) from None
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(cfg) - set(_CONCORD_INTS) - {"grid"}
    if unknown:
        raise UsageError("unknown config keys: %s" % sorted(unknown))
    for key, low in _CONCORD_INTS.items():
        if key in cfg and not _is_int(cfg[key], low):
            raise UsageError("config key %r: expected an integer%s, got %s"
                             % (key, "" if low is None else " >= %d" % low,
                                json.dumps(cfg[key])))
    grid = cfg.get("grid", [])
    if not isinstance(grid, list):
        raise UsageError("config key 'grid': expected a list")
    for item in grid:
        _check_grid_item(item)
    return grid, {key: cfg[key] for key in _CONCORD_INTS if key in cfg}


def _run_concord(args):
    kwargs = {"seed": args.seed, "cap": args.cap}
    grid = []
    if args.config:
        grid, settings = _read_config(args.config)
        kwargs.update(settings)
    if args.pairs:
        grid.extend(args.pairs)
    if not grid:
        raise ValueError("empty grid: pass --pairs or --config")
    workers = min(args.jobs, len(grid))
    if workers > 1:
        report = _parallel_sweep(grid, kwargs, workers)
    else:
        report = _merged_sweep(grid, kwargs, map)
    _emit(report, args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report_csv(report))
    bad = report["summary"]["generic_disagreements"] or \
        report["summary"]["cross_check_failures"]
    return VERIFY_FAILED if bad else 0


def _sweep_one(job):
    item, kwargs = job
    return concordance_sweep([item], **kwargs)


def _merged_sweep(grid, kwargs, mapper):
    # one sweep per grid item with a derived per-item seed, so jobs=1 and
    # jobs=N produce byte-identical reports
    jobs = []
    for idx, item in enumerate(grid):
        kw = dict(kwargs)
        kw["seed"] = kwargs["seed"] * 10007 + idx
        jobs.append((item, kw))
    parts = mapper(_sweep_one, jobs)
    return concordance_report([p for part in parts for p in part["points"]],
                              kwargs["seed"], kwargs["cap"])


def _parallel_sweep(grid, kwargs, jobs):
    import multiprocessing as mp
    with mp.Pool(jobs) as pool:
        return _merged_sweep(grid, kwargs, pool.map)


if __name__ == "__main__":
    sys.exit(main())
