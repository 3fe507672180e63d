"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 computational failure (cap exceeded,
no root of unity in the requested characteristic, unsupported case), 3 when
a verification subcommand finds failures (relation failures, Gram shape or
equivariance violations, generic-stratum concordance disagreements, internal
cross-check failures).

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
from .criterion import bar_deltas, decide, g_mu, z_set, z_tilde
from .diagrams import (NumericParams, SymbolicParams, associativity_check,
                       basis_size, verify_prop_eta, verify_relations)
from .gram import (cell_gram, equivariance_check, gram_big, shape_check,
                   single_box_gram)
from .oracle import (concordance_report, concordance_sweep, report_csv,
                     semisimple_verdict)
from .partitions import admissible_set, check_multipartition, \
    multipartitions, t_set
from .scalars import CyclotomicField, NoRootError, field_with_root
from .wreath import enumerate_group, group_order

USAGE_ERROR, COMPUTE_ERROR, VERIFY_FAILED = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print("error: %s" % message, file=sys.stderr)
        sys.exit(USAGE_ERROR)


def _int_at_least(low):
    """argparse type: an integer >= low (m >= 1, n >= 0)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                "expected an integer >= %d, got %r" % (low, text))
        return value
    return parse


M_ARG, N_ARG = _int_at_least(1), _int_at_least(0)


def _pairs(text):
    """argparse type for --pairs: semicolon-separated m,n pairs."""
    grid = []
    for chunk in text.split(";"):
        try:
            m, n = chunk.split(",")
            grid.append((M_ARG(m), N_ARG(n)))
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(
                "bad pair %r: expected m,n with m >= 1 and n >= 0"
                % chunk) from None
    return grid


def _parse_scalar(field, text):
    if ":" in text:
        coeffs = [Fraction(t) for t in text.split(":")]
        return field.element(coeffs)
    return field.embed(Fraction(text))


def _parse_deltas(field, m, text):
    parts = text.split(",")
    if len(parts) != m:
        raise ValueError("need exactly %d delta components" % m)
    return [_parse_scalar(field, t) for t in parts]


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

    def add(name, help_text, mn=True, char_delta=False, variant=False):
        p = sub.add_parser(name, help=help_text)
        if mn:
            p.add_argument("--m", type=M_ARG, required=True)
            p.add_argument("--n", type=N_ARG, required=True)
        if char_delta:
            p.add_argument("--char", type=int, default=0)
            p.add_argument("--delta", type=str, default=None)
        if variant:
            p.add_argument("--variant", type=str, default="printed-z")
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
            variant=True)
    p.add_argument("--tilde", action="store_true",
                   help="emit the unscaled set")
    p = sub.add_parser("admissible", help="admissible two-box extensions of mu")
    p.add_argument("--m", type=M_ARG, required=True)
    p.add_argument("--mu", type=str, required=True,
                   help="JSON multipartition, e.g. [[1],[]]")
    p.add_argument("--out", type=str, default=None)
    add("gmu", "cell factors g_mu over the multipartitions of n-2",
        char_delta=True)
    p = sub.add_parser("bar-delta", help="transformed parameters bar_delta_i")
    p.add_argument("--m", type=M_ARG, required=True)
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--delta", type=str, required=True)
    p.add_argument("--out", type=str, default=None)
    add("decide", "semisimplicity verdict", char_delta=True, variant=True)
    p = add("gram", "iota-form Gram matrix on the one-arc module V",
            char_delta=True)
    p.add_argument("--cap", type=int, default=5000)
    p.add_argument("--skip-equivariance", action="store_true")
    p = add("cell-gram", "cellular Gram matrix of the cell (1, mu')",
            char_delta=True)
    p.add_argument("--mu", type=str, required=True)
    p = sub.add_parser("single-box",
                       help="3m x 3m Gram matrix of the one-box cell at n=3")
    p.add_argument("--m", type=M_ARG, required=True)
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
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p = sub.add_parser("prop-eta",
                       help="degree-2 eigenvector decomposition check")
    p.add_argument("--m", type=M_ARG, required=True)
    p.add_argument("--out", type=str, default=None)
    p = sub.add_parser("tset", help="one-box addition contents vs closed form")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--out", type=str, default=None)

    args = top.parse_args(argv)
    try:
        return _dispatch(args)
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
        variant = {"printed-z": "printed", "printed": "printed",
                   "combinatorial-rho": "combinatorial",
                   "combinatorial": "combinatorial"}.get(args.variant)
        if variant is None:
            raise ValueError("unknown variant %r" % args.variant)
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
        v = decide(args.m, args.n, field, deltas, args.variant)
        _emit(v.to_json(), args.out)
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
            rep = equivariance_check(args.m, args.n, eq_params, args.cap)
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


_CONCORD_KEYS = {"grid", "seed", "cap", "generic_points", "hyperplane_points"}


def _run_concord(args):
    kwargs = {"seed": args.seed, "cap": args.cap}
    grid = []
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        unknown = set(cfg) - _CONCORD_KEYS
        if unknown:
            raise ValueError("unknown config keys: %s" % sorted(unknown))
        grid = cfg.get("grid", [])
        for key in ("seed", "cap", "generic_points", "hyperplane_points"):
            if key in cfg:
                kwargs[key] = cfg[key]
    if args.pairs:
        grid.extend(args.pairs)
    if not grid:
        raise ValueError("empty grid: pass --pairs or --config")
    if args.jobs > 1:
        report = _parallel_sweep(grid, kwargs, args.jobs)
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
