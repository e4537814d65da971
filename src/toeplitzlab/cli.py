"""Command line front end.

Exit codes: 0 all requested work succeeded (checks passed or were vacuous),
1 at least one check failed with a counterexample, or two routes to the same
exact quantity disagreed (an ArithmeticError), 2 usage or config error.
Numbers print as exact fractions with a decimal approximation alongside.
"""

import argparse
import json
import sys
from fractions import Fraction

from .budgets import Budget
from .errors import (BudgetExceeded, DepthExceeded, EmptySlot,
                     InconclusiveTail, InvalidIndex, NotInDomain, ParityError,
                     UnknownCheck)
from .presets import PRESET_DEPTH, preset_config, preset_names
from .result import exact_str, jsonable
from .skeleton import Undefined, build_skeleton
from .tower import TowerConfig, build_tower

# every outside input is checked where it is parsed and fails with one of
# these; any other exception is a fault of the program and keeps its traceback
_USAGE_ERRORS = (InvalidIndex, NotInDomain, ParityError, DepthExceeded,
                 UnknownCheck, EmptySlot, InconclusiveTail, OSError)


def _emit_result(res, as_json):
    if as_json:
        print(json.dumps(res.to_json(), indent=1))
    else:
        print(res.render())
    return 0 if res.ok else 1


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_common(sp):
    sp.add_argument("--preset", choices=preset_names(),
                    help="shipped tower config")
    sp.add_argument("--config", metavar="PATH",
                    help="tower config JSON file")
    sp.add_argument("--depth", type=int,
                    help="build depth (default: preset depth / full config)")
    sp.add_argument("--enum-budget", type=_positive_int, dest="enum_budget",
                    default=Budget().enum,
                    help="cap on element arrays: J-sets, domains, sections "
                         "and chain states")
    sp.add_argument("--window-budget", type=_positive_int, dest="window_budget",
                    default=Budget().window,
                    help="cap on materialized window sizes")
    sp.add_argument("--json", action="store_true", dest="as_json",
                    help="machine-readable output")
    return sp


def _skeleton(args):
    if args.config:
        cfg = TowerConfig.load(args.config)
        preset_depth = None
    elif args.preset:
        cfg = preset_config(args.preset)
        preset_depth = PRESET_DEPTH[args.preset]
    else:
        raise InvalidIndex("need --preset or --config")
    tower = build_tower(cfg)
    depth = args.depth if args.depth is not None \
        else (preset_depth or tower.depth)
    return build_skeleton(tower, depth,
                          Budget(args.enum_budget, args.window_budget))


def _cmd_eta_build(sk, args):
    if args.out:
        sk.save(args.out)
    if args.as_json:
        print(json.dumps(sk.to_json()))
        return 0
    T = sk.tower
    print(f"tower: {T.kind}/{T.config().style}, depth {sk.depth}, "
          f"|D_depth| = {T.size(sk.depth)}")
    print(f"block boundaries m_k: {sk.m_k}")
    for rec in sk.h_records:
        print(f"  step {rec.step}: planted "
              f"{T.format_element(rec.h)} (block {rec.block})")
    print(f"linking: { {k: v for k, v in sorted(sk.linking_ok.items())} }")
    if args.out:
        print(f"saved to {args.out}")
    return 0


def _cmd_eta_eval(sk, args):
    g = sk.tower.parse_element(args.g)
    v = sk.eval(g)
    if args.as_json:
        print(json.dumps({"g": sk.tower.format_element(g),
                          "value": None if v is Undefined else int(v)}))
    else:
        print("undefined" if v is Undefined else int(v))
    return 0


def _cmd_eta_window(sk, args):
    from .window import SYMBOLS, materialize_window
    level = args.level if args.level is not None else sk.depth - 1
    w = materialize_window(sk, level)
    if args.out:
        if args.format == "csv":
            w.to_csv(sk.tower, args.out)
        elif args.format == "pgm":
            w.to_pgm(sk.tower, args.out)
        else:
            w.to_bits(args.out)
    counts = w.counts()
    if args.as_json:
        print(json.dumps({"level": level, "cells": w.n_cells,
                          "counts": counts,
                          "out": args.out, "format": args.format}))
        return 0
    print(f"window D_{level}: {w.n_cells} cells, "
          f"{counts['ones']} ones, {counts['zeros']} zeros, "
          f"{counts['undefined']} undecided")
    if w.n_cells <= 128:
        print(SYMBOLS[w.values_array().clip(max=2)].tobytes().decode())
    if args.out:
        print(f"wrote {args.format} to {args.out}")
    return 0


def _cmd_periods_show(sk, args):
    from .periods import per_set
    n = args.level
    p0 = per_set(sk, n, 0)
    p1 = per_set(sk, n, 1)
    jn = sk.jset(n)
    size = sk.tower.size(n)
    if args.as_json:
        fmt = sk.tower.format_element
        print(json.dumps({
            "level": n,
            "per0": [fmt(g) for g in p0],
            "per1": [fmt(g) for g in p1],
            "jset": [fmt(g) for g in sk.tower.elements(jn)],
        }, indent=1))
        return 0
    print(f"level {n}: |D_n| = {size}")
    print(f"  Per(,0) cells: {len(p0)}  mass {exact_str(Fraction(len(p0), size))}")
    print(f"  Per(,1) cells: {len(p1)}  mass {exact_str(Fraction(len(p1), size))}")
    print(f"  J(n) cells:    {len(jn)}  mass {exact_str(Fraction(len(jn), size))}")
    return 0


def _cmd_analyze_density(sk, args):
    from .density import density_methods, regularity_verdict
    levels = args.levels if args.levels is not None else sk.depth - 1
    report = regularity_verdict(sk.tower, levels=levels)
    # the levels whose d_n every route reaches, enumeration included
    methods = []
    for n in range(1, min(levels, sk.depth - 1) + 1):
        routes = density_methods(sk, n)
        if "enumeration" not in routes:
            break
        methods.append({"n": n, "agree": len(set(routes.values())) == 1})
    if args.as_json:
        print(json.dumps({**report.to_json(), "methods": methods}, indent=1))
    else:
        print(report.render())
        bad = [m["n"] for m in methods if not m["agree"]]
        print(f"  routes to d_n agree at n in "
              f"{[m['n'] for m in methods if m['agree']]}"
              + (f"; disagree at n in {bad}" if bad else ""))
    return 0 if all(m["agree"] for m in methods) else 1


def _cmd_analyze_measures(sk, args):
    from .cells import mu_zero_set
    from .measures import limit_01, mu_cylinder, parse_pattern
    m = args.level if args.level is not None else sk.depth - 1
    enc = limit_01(sk, level=m)
    payload = {"level": m, "one": list(enc["one"]), "zero": list(enc["zero"]),
               "a_counts": list(enc["a_counts"]), "verdict": enc["verdict"]}
    if m >= 2:
        try:
            payload["mu_z1"] = mu_zero_set(sk, 1, m)
        except BudgetExceeded as exc:
            payload["mu_z1"] = f"over budget ({exc})"
    if args.cylinders:
        with open(args.cylinders, "r", encoding="utf-8") as fh:
            try:
                spec = json.load(fh)
            except ValueError as exc:
                raise NotInDomain(f"{args.cylinders} is not JSON: {exc}") from None
        pats = spec if isinstance(spec, list) else [spec]
        payload["cylinders"] = [
            {"index": i,
             "mass": mu_cylinder(sk, m, parse_pattern(sk.tower, obj))}
            for i, obj in enumerate(pats)]
    if args.as_json:
        print(json.dumps(jsonable(payload), indent=1))
        return 0
    print(f"level {m} cylinder masses:")
    print(f"  mu[1] in {exact_str(payload['one'])}")
    print(f"  mu[0] in {exact_str(payload['zero'])}")
    if "mu_z1" in payload:
        z = payload["mu_z1"]
        print(f"  mu_{m}(Z_1) = {exact_str(z)}" if isinstance(z, Fraction)
              else f"  mu_{m}(Z_1): {z}")
    for c in payload.get("cylinders", []):
        print(f"  cylinder {c['index']}: mu = {exact_str(c['mass'])}")
    return 0


def _cmd_factor_pi(sk, args):
    from .factor import pi_of_orbit
    v = sk.tower.parse_element(args.g)
    pt = pi_of_orbit(sk, v, depth=args.level)
    if args.as_json:
        print(json.dumps(pt.to_json(sk.tower)))
    else:
        fmt = sk.tower.format_element
        print(" -> ".join(fmt(c) for c in pt.cosets))
    return 0


def _cmd_factor_fibers(sk, args):
    from .factor import fiber_profile
    n = args.level if args.level is not None else 1
    prof = fiber_profile(sk, n)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(prof.to_csv())
    if args.as_json:
        print(json.dumps({
            "level": n,
            "counts": prof.counts,
            "partial": prof.partial,
        }, indent=1))
        return 0
    print(f"fibers over level-{n} cosets ({len(prof.counts)} cosets):")
    for c, k in prof.counts.items():
        print(f"  {c}: {k} distinct windows")
    if args.csv:
        print(f"wrote csv to {args.csv}")
    return 0


def _cmd_verify(sk, args):
    from .verify import AXIOMS_FAIL, run_all, run_check
    if args.check == "all":
        return _emit_result(run_all(sk), args.as_json)
    res = run_check(sk, args.check)
    if res.scope.startswith(AXIOMS_FAIL):
        # alone, a check vacated by a broken tower has no verdict to give
        cx = res.witnesses[0]
        where = " ".join(f"{k} {cx[k]}" for k in ("level", "pair") if k in cx)
        raise NotInDomain(f"{res.name}: {res.scope}; decom: {cx['reason']} "
                          f"at {where}")
    return _emit_result(res, args.as_json)


class _CheckHelp(str):
    # argparse `%`-formats a help string only to print it: verify loads then
    def __mod__(self, params):
        from .verify import REGISTRY_NAMES
        return f"'all' or one of: {', '.join(REGISTRY_NAMES)}"


def _build_parser():
    p = argparse.ArgumentParser(
        prog="toeplitzlab",
        description="Build irregular Toeplitz arrays over residually finite "
                    "towers and verify their finite identities exactly.")
    groups = p.add_subparsers(dest="group", required=True, metavar="GROUP")

    tower = groups.add_parser("tower", help="tower construction checks")
    ts = tower.add_subparsers(dest="action", required=True)
    _add_common(ts.add_parser("validate", help="nesting, tiling, parity")) \
        .set_defaults(fn=_cmd_verify, check="decom")

    eta = groups.add_parser("eta", help="array construction and evaluation")
    es = eta.add_subparsers(dest="action", required=True)
    b = _add_common(es.add_parser("build", help="run the step machine"))
    b.add_argument("--out", metavar="PATH", help="save the build record")
    b.set_defaults(fn=_cmd_eta_build)
    e = _add_common(es.add_parser("eval", help="evaluate one coordinate"))
    e.add_argument("-g", required=True, help="group element (e.g. 14 or 2,5)")
    e.set_defaults(fn=_cmd_eta_eval)
    w = _add_common(es.add_parser("window", help="materialize a bit-packed "
                                  "window over D_level"))
    w.add_argument("--level", type=int)
    w.add_argument("--format", choices=["bits", "csv", "pgm"], default="bits")
    w.add_argument("--out", metavar="PATH")
    w.set_defaults(fn=_cmd_eta_window)

    per = groups.add_parser("periods", help="period structure")
    ps = per.add_subparsers(dest="action", required=True)
    s = _add_common(ps.add_parser("show", help="per-sets at one level"))
    s.add_argument("--level", type=int, default=2)
    s.set_defaults(fn=_cmd_periods_show)

    ana = groups.add_parser("analyze", help="density and measures")
    asu = ana.add_subparsers(dest="action", required=True)
    d = _add_common(asu.add_parser("density", help="regularity verdict"))
    d.add_argument("--levels", type=int, help="how many d_n terms to print")
    d.set_defaults(fn=_cmd_analyze_density)
    m = _add_common(asu.add_parser("measures", help="cylinder masses"))
    m.add_argument("--level", type=int)
    m.add_argument("--cylinders", metavar="PATH",
                   help="JSON pattern spec: {\"support\": [...], "
                        "\"values\": [...]} or a list of them")
    m.set_defaults(fn=_cmd_analyze_measures)

    fac = groups.add_parser("factor", help="odometer factor map")
    fs = fac.add_subparsers(dest="action", required=True)
    fp = _add_common(fs.add_parser("pi", help="coset tower of one point"))
    fp.add_argument("-g", required=True)
    fp.add_argument("--level", type=int, help="truncate at this level")
    fp.set_defaults(fn=_cmd_factor_pi)
    ff = _add_common(fs.add_parser("fibers", help="window fingerprints "
                                   "per coset"))
    ff.add_argument("--level", type=int)
    ff.add_argument("--csv", metavar="PATH")
    ff.set_defaults(fn=_cmd_factor_fibers)

    ver = groups.add_parser("verify", help="named identity checks")
    ver.add_argument("check", metavar="CHECK", help=_CheckHelp("a check"))
    _add_common(ver)
    ver.set_defaults(fn=_cmd_verify, action=None)

    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0)
    try:
        return args.fn(_skeleton(args), args)
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
