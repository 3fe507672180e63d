"""Command line interface.

Exit codes:

- 0 success;
- 1 usage error: a missing or malformed argument, including a missing or
  malformed --delta value, a --char that is neither 0 nor a prime, an
  unknown --variant, a --cap, --trials or --jobs below 1, or an
  unreadable or malformed --config file;
- 2 computational failure: cap exceeded, no root of unity in the
  requested characteristic, unsupported case;
- 3 a verification subcommand found failures: relation failures, Gram
  shape or equivariance violations, generic-stratum concordance
  disagreements, internal cross-check failures.

Scalar syntax for --delta: comma-separated components delta_0..delta_{m-1};
each component is a rational like 7/2 or a colon-separated coefficient
vector c_0:c_1:... standing for sum_i c_i zeta^i, zeta the field's
primitive m-th root of unity (in every characteristic), like 1:2/3.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from fractions import Fraction
from functools import partial

from . import __version__
from .criterion import VARIANTS, bar_deltas, decide, g_mu, z_set, z_tilde
from .deltapoly import SymbolicParams
from .diagrams import (OFF_LOCUS_NOTE, NumericParams, associativity_check,
                       basis_size, deltas_admissible, verify_prop_eta,
                       verify_relations)
from .gram import (cell_gram, equivariance_check, gram_big, shape_check,
                   single_box_gram)
from .oracle import (concordance_report, report_csv, semisimple_verdict,
                     sweep_item, sweep_points)
from .partitions import admissible_set, check_multipartition, \
    multipartitions, t_set
from .scalars import NoRootError, field_with_root, is_prime
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


def _emit(obj, out):
    payload = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _params(args, symmetric=False):
    """The loop parameters of a --char/--delta command: generic symbolic
    ones (on the admissible locus if symmetric) when --delta is absent,
    else the --delta point, m comma-separated components, each a rational
    or a colon-separated coefficient vector on the powers of the field's
    m-th root of unity."""
    field, m, text = field_with_root(args.char, args.m), args.m, args.delta
    if text is None:
        return SymbolicParams(m, field, symmetric)
    try:
        parts = [[Fraction(c) for c in t.split(":")] for t in text.split(",")]
    except (ValueError, ZeroDivisionError):
        parts = None
    if parts is None or len(parts) != m:
        raise UsageError("argument --delta: expected %d comma-separated "
                         "rationals or coefficient vectors (like 7/2 or "
                         "1:2/3), got %r" % (m, text))
    zeta = field.root_of_unity(m)
    return NumericParams(field, [sum((field.coerce(c) * zeta ** i
                                      for i, c in enumerate(cs)), field.zero)
                                 for cs in parts])


def main(argv=None):
    top = _Parser(prog="cycbrauer",
                  description="exact computations in cyclotomic Brauer algebras")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text, dims="mn", delta=None, variants=None):
        """One subcommand with --m and --n (as dims lists them), --char and
        --delta when delta is "optional" or "required", and --out."""
        p = sub.add_parser(name, help=help_text)
        if "m" in dims:
            p.add_argument("--m", type=POSITIVE_ARG, required=True)
        if "n" in dims:
            p.add_argument("--n", type=N_ARG, required=True)
        if delta:
            p.add_argument("--char", type=CHAR_ARG, default=0)
            p.add_argument("--delta", type=str, required=delta == "required")
        if variants:
            p.add_argument("--variant", choices=variants, default="printed-z")
        p.add_argument("--out", type=str, default=None)
        return p

    add("relations", "verify the 17 defining relations on diagrams")
    p = add("assoc", "sample associativity of the diagram product",
            delta="optional")
    p.add_argument("--trials", type=POSITIVE_ARG, default=1000)
    p.add_argument("--seed", type=int, default=0)
    add("dim", "basis size m^n (2n-1)!!")
    p = add("group", "wreath group order and optional element list")
    p.add_argument("--list", action="store_true")
    p.add_argument("--cap", type=POSITIVE_ARG, default=10 ** 6)
    p = add("zset", "the integer set Z_{m,n} (or its 1/m scaling)",
            variants=ZSET_VARIANTS)
    p.add_argument("--tilde", action="store_true",
                   help="emit the unscaled set")
    p = add("admissible", "admissible two-box extensions of mu", dims="m")
    p.add_argument("--mu", type=str, required=True,
                   help="JSON multipartition, e.g. [[1],[]]")
    add("gmu", "cell factors g_mu over the multipartitions of n-2",
        delta="required")
    add("bar-delta", "transformed parameters bar_delta_i", dims="m",
        delta="required")
    add("decide", "semisimplicity verdict", delta="required",
        variants=VARIANTS)
    p = add("gram", "iota-form Gram matrix on the one-arc module V",
            delta="optional")
    p.add_argument("--cap", type=POSITIVE_ARG, default=5000)
    p = add("cell-gram", "cellular Gram matrix of the cell (1, mu')",
            delta="optional")
    p.add_argument("--mu", type=str, required=True)
    add("single-box", "3m x 3m Gram matrix of the one-box cell at n=3",
        dims="m")
    p = add("oracle", "trace-form radical verdict (characteristic 0)",
            delta="required")
    p.add_argument("--cap", type=POSITIVE_ARG, default=500)
    p = add("concord", "concordance sweep: criterion variants vs oracle",
            dims="")
    p.add_argument("--pairs", type=_pairs, default=None,
                   help="semicolon list of m,n pairs, e.g. 2,2;3,2")
    p.add_argument("--config", type=str, default=None,
                   help="JSON config with keys grid/seed/cap/"
                        "generic_points/hyperplane_points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=POSITIVE_ARG, default=500)
    p.add_argument("--jobs", type=POSITIVE_ARG, default=1)
    p.add_argument("--csv", type=str, default=None)
    add("prop-eta", "degree-2 eigenvector decomposition check", dims="m")
    p = add("tset", "one-box addition contents vs closed form", dims="")
    p.add_argument("--a", type=int, required=True)

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
        rep = associativity_check(args.m, args.n,
                                  _params(args, symmetric=True),
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
        params = _params(args)
        out = [{"mu": [list(p) for p in mu],
                "g_mu": str(g_mu(params.field, params.deltas, mu))}
               for mu in multipartitions(args.m, args.n - 2)]
        _emit({"m": args.m, "n": args.n, "values": out}, args.out)
        return 0

    if cmd == "bar-delta":
        params = _params(args)
        _emit([str(b) for b in bar_deltas(params.field, params.deltas)],
              args.out)
        return 0

    if cmd == "decide":
        params = _params(args)
        v = decide(args.m, args.n, params.field, params.deltas,
                   args.variant).to_json()
        if not deltas_admissible(params.deltas):
            v.update(admissible=False, note=OFF_LOCUS_NOTE)
        _emit(v, args.out)
        return 0

    if cmd == "gram":
        params = _params(args)
        gm = gram_big(args.m, args.n, params, args.cap)
        bad = shape_check(gm, params)
        obj = gm.to_json()
        obj["shape_violations"] = bad
        eq_params = params
        if args.delta is None and args.m >= 3:
            # generic symbolic parameters are off the admissible locus for
            # m >= 3, where the commutation identities cannot hold; check
            # at a generic admissible point instead
            eq_params = _params(args, symmetric=True)
        rep = equivariance_check(args.m, args.n, eq_params, args.cap,
                                 gm if eq_params is params else None)
        obj["equivariance"] = rep
        if not rep["ok"]:
            bad = bad or rep["failures"]
        _emit(obj, args.out)
        return VERIFY_FAILED if bad else 0

    if cmd == "cell-gram":
        params = _params(args)
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
        params = _params(args)
        v = semisimple_verdict(args.m, args.n, params.field, params.deltas,
                               cap=args.cap)
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
_CONCORD_INTS = {"seed": None, "cap": 1, "generic_points": 0,
                 "hyperplane_points": 0}


def _is_int(value, low=None):
    return (isinstance(value, int) and not isinstance(value, bool)
            and (low is None or value >= low))


def _rational(value):
    """A config delta as a Fraction: an integer (not a bool) or a rational
    string like "7/2"; None for anything else (a float, say)."""
    if _is_int(value) or isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    return None


def _check_grid_item(item):
    """A config grid item is [m, n] or {"m": m, "n": n, "deltas": [...]}
    (no other keys), with m >= 1 and n >= 0 as for --pairs and m rationals
    per delta; returned with its deltas as Fractions."""
    if isinstance(item, dict):
        pair, vectors = [item.get("m"), item.get("n")], item.get("deltas", [])
        ok = set(item) <= {"m", "n", "deltas"}
    else:
        pair, vectors, ok = item, [], True
    ok = (ok and isinstance(pair, list) and len(pair) == 2
          and _is_int(pair[0], 1) and _is_int(pair[1], 0)
          and isinstance(vectors, list)
          and all(isinstance(v, list) and len(v) == pair[0] for v in vectors))
    deltas = [[_rational(x) for x in v] for v in vectors] if ok else []
    if not ok or any(None in v for v in deltas):
        raise UsageError("config key 'grid': bad item %s: expected [m, n] or "
                         "{\"m\": m, \"n\": n, \"deltas\": [...]} with "
                         "m >= 1, n >= 0 and m rationals (integers or "
                         "\"p/q\" strings) per delta vector"
                         % json.dumps(item))
    return {"m": pair[0], "n": pair[1], "deltas": deltas}


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
    grid = [_check_grid_item(item) for item in grid]
    return grid, {key: cfg[key] for key in _CONCORD_INTS if key in cfg}


def _run_concord(args):
    grid, settings = _read_config(args.config) if args.config else ([], {})
    settings = {"seed": args.seed, "cap": args.cap, **settings}
    grid += args.pairs or []
    if not grid:
        raise ValueError("empty grid: pass --pairs or --config")
    seed, cap = settings.pop("seed"), settings.pop("cap")
    # oracle.concordance_sweep, with only its evaluation step spread over
    # workers: every point is drawn before any worker starts
    items = sweep_points(grid, seed, **settings)
    evaluate = partial(sweep_item, cap=cap)
    workers = min(args.jobs, len(items))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(evaluate, items)
    else:
        parts = map(evaluate, items)
    report = concordance_report([rec for part in parts for rec in part],
                                seed, cap)
    _emit(report, args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report_csv(report))
    bad = report["summary"]["generic_disagreements"] or \
        report["summary"]["cross_check_failures"]
    return VERIFY_FAILED if bad else 0


if __name__ == "__main__":
    sys.exit(main())
