"""Command-line interface.

Subcommands: optimize, sweep, heat-content, verify, corner-coeff, oracle.
Machine formats (csv, json) print 12 significant digits and are
byte-deterministic for identical invocations; wall-clock columns are left
empty unless --timing is passed. Exit codes: 0 success, 1 usage or input
error, 2 consistency or suite failure, 3 partial completion.
"""

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from . import fem, geometry, optimizer, oracles, specfun, verify
from .errors import ResolutionCapError, RobinoptError, UsageError

_SUITES = ("optimality", "asymptotic", "heat", "blowup", "all")


def _fmt(x):
    return f"{float(x):.12g}"


def _round12(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_mesh(args, mu=0.0):
    """Mesh from --domain, honoring mesh:PATH and the layer auto-rule."""
    spec = args.domain
    if spec.startswith("mesh:"):
        return None, geometry.Mesh.load(spec[5:])
    domain = geometry.parse_domain(spec)
    return domain, verify.mesh_for(domain, mu, args.h)


def _finite_float(text):
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _dump_sigma(mesh, sigma, path):
    pos = {int(b): i for i, b in enumerate(mesh.boundary_nodes)}
    lines = ["arc_length,sigma"]
    for loop in mesh.boundary_loops():
        arc = 0.0
        prev = None
        for node in loop:
            if prev is not None:
                arc += float(np.linalg.norm(
                    mesh.nodes[node] - mesh.nodes[prev]
                ))
            lines.append(f"{_fmt(arc)},{_fmt(sigma.values[pos[node]])}")
            prev = node
    _emit("\n".join(lines) + "\n", path)


def cmd_optimize(args):
    domain, mesh = _resolve_mesh(args, args.mu)
    tol = args.tol if args.tol is not None else optimizer.default_tol(args.mu)
    res = optimizer.optimize(mesh, args.mu, tol)
    fields = [
        ("domain", args.domain),
        ("mu", _fmt(res.mu)),
        ("lambda_mu", _fmt(res.s_mu)),
        ("F_residual", _fmt(res.F_residual)),
        ("sigma_integral_error", _fmt(res.sigma_integral_error)),
        ("independent_lambda", _fmt(res.independent_lambda)),
        ("sigma_min", _fmt(res.sigma_mu.values.min())),
        ("sigma_max", _fmt(res.sigma_mu.values.max())),
        ("iterations", str(res.iterations)),
        ("consistency", "ok" if res.consistency_ok else "FAIL"),
    ]
    if args.format == "json":
        payload = {k: (_round12(float(v)) if k not in
                       ("domain", "consistency") else v)
                   for k, v in fields}
        payload["iterations"] = res.iterations
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    elif args.format == "csv":
        _emit(",".join(k for k, _ in fields) + "\n"
              + ",".join(v for _, v in fields) + "\n", args.output)
    else:
        width = max(len(k) for k, _ in fields)
        rows = []
        for k, v in fields:
            try:
                v = f"{float(v):.6g}"
            except ValueError:
                pass
            rows.append(f"{k.ljust(width)}  {v}")
        _emit("\n".join(rows) + "\n", args.output)
    if args.dump_sigma:
        _dump_sigma(mesh, res.sigma_mu, args.dump_sigma)
    return 0 if res.consistency_ok else 2


def _sweep_point(mesh, pred, mu, timing):
    t0 = time.perf_counter()
    res = optimizer.optimize(mesh, mu)
    wall = f"{time.perf_counter() - t0:.3f}" if timing else ""
    predicted = pred.evaluate(mu)
    return ",".join([
        _fmt(mu), _fmt(res.s_mu), _fmt(predicted),
        _fmt(res.s_mu - predicted), _fmt(res.sigma_mu.spread()),
        _fmt(res.independent_lambda), wall,
    ])


def cmd_sweep(args):
    if args.domain.startswith("mesh:"):
        raise UsageError("sweep needs a catalogue domain for the "
                         "prediction columns")
    domain = geometry.parse_domain(args.domain)
    pred = oracles.predict_lambda(domain)
    mus = list(np.linspace(args.mu_from, args.mu_to, args.mu_count))
    if not mus:
        raise UsageError("empty sweep grid")
    mesh = verify.mesh_for(domain, min(mus), args.h)
    skipped = []
    rows = []
    for mu in mus:
        try:
            rows.append(_sweep_point(mesh, pred, mu, args.timing))
        except ResolutionCapError as exc:
            skipped.append(mu)
            print(f"warning: skipped mu={mu:g}: {exc}", file=sys.stderr)
    if not rows:
        raise UsageError("no admissible grid point; refine the mesh or "
                         "shrink the grid")
    header = ("mu,s_mu,predicted_two_term,remainder,sigma_spread,"
              "independent_lambda,wall_seconds")
    _emit(header + "\n" + "\n".join(rows) + "\n", args.output)
    return 3 if skipped else 0


def cmd_heat_content(args):
    domain, mesh = _resolve_mesh(args)
    t_lo = args.t_from if args.t_from else 25.0 * args.h**2
    t_hi = args.t_to if args.t_to else 100.0 * args.h**2
    times = np.geomspace(t_lo, t_hi, args.t_count)
    curve = fem.heat_content(mesh, times)
    lines = ["t,Q"]
    lines += [f"{_fmt(t)},{_fmt(q)}"
              for t, q in zip(curve.times, curve.values)]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args):
    if args.suite not in _SUITES:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from {', '.join(_SUITES)}"
        )
    if args.domain.startswith("mesh:"):
        raise UsageError("verification suites need a catalogue domain")
    domain = geometry.parse_domain(args.domain)
    if args.suite == "optimality":
        reports = [verify.run_optimality_suite(
            domain, args.mu, samples=args.samples, seed=args.seed, h=args.h
        )]
    elif args.suite == "asymptotic":
        grid = (np.linspace(-200.0, -20.0, 10) if domain.kind == "disk"
                else np.linspace(-24.0, -8.0, 5))
        reports = [verify.run_asymptotic_suite(domain, list(grid),
                                               h=max(args.h, 0.015))]
    elif args.suite == "heat":
        reports = [verify.run_heat_content_suite(domain, h=args.h)]
    elif args.suite == "blowup":
        # the early-n trace is monotone for the unit constraint; larger
        # magnitudes shift the divergence beyond the resolvable range
        reports = [verify.run_blowup_suite(domain, mu=-1.0)]
    else:
        reports = verify.run_all_suites(
            domain, mu=args.mu, samples=args.samples, seed=args.seed,
            h=args.h,
        )
    all_pass = all(r.passed for r in reports)
    if args.format == "table":
        text = "\n\n".join(r.to_table() for r in reports) + "\n"
    else:
        if len(reports) == 1:
            payload = reports[0].to_dict()
        else:
            payload = {
                "suite": "all",
                "reports": [r.to_dict() for r in reports],
                "pass": all_pass,
                "runtime_s": None,
            }
        text = json.dumps(payload, indent=2) + "\n"
    _emit(text, args.output)
    return 0 if all_pass else 2


def cmd_corner_coeff(args):
    if args.grid:
        alphas = np.linspace(0.05, 2.0 * math.pi - 0.05, args.grid)
        lines = ["alpha,c"]
        lines += [f"{_fmt(a)},{_fmt(specfun.corner_coefficient(a))}"
                  for a in alphas]
        _emit("\n".join(lines) + "\n", args.output)
        return 0
    if args.alpha is None:
        raise UsageError("corner-coeff needs --alpha or --grid")
    if args.alpha < 0.05:
        raise UsageError(
            "alpha below 0.05 is refused: the coefficient diverges as the "
            "angle closes and its tail behavior is not characterized"
        )
    if args.alpha >= 2.0 * math.pi:
        raise UsageError("alpha must lie in [0.05, 2*pi)")
    _emit(_fmt(specfun.corner_coefficient(args.alpha)) + "\n", args.output)
    return 0


def cmd_oracle(args):
    domain = geometry.parse_domain(args.domain)
    out = {"domain": args.domain}
    pred = oracles.predict_lambda(domain)
    out["leading_coefficient"] = pred.leading
    out["subleading_coefficient"] = pred.subleading
    out["regime"] = pred.regime
    if domain.kind == "disk":
        radius = domain.params[0]
        if args.s is not None:
            out["F"] = oracles.disk_F(radius, args.s)
        if args.sigma is not None:
            out["lambda_const_sigma"] = oracles.disk_robin_lambda(
                radius, args.sigma
            )
        if args.mu is not None:
            out["lambda_mu"] = oracles.disk_lambda_mu(radius, args.mu)
    elif args.s is not None or args.sigma is not None or args.mu is not None:
        raise UsageError("closed-form values are disk-only; other domains "
                         "report prediction coefficients")
    if args.format == "json":
        _emit(json.dumps(_round12(out), indent=2) + "\n", args.output)
    else:
        width = max(len(k) for k in out)
        lines = []
        for k, v in out.items():
            if isinstance(v, float):
                v = _fmt(v)
            lines.append(f"{k.ljust(width)}  {v}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="robinopt",
        description="Optimal Robin boundary parameters and principal "
                    "eigenvalues on 2D domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mu_default=None):
        p.add_argument("--domain", default="disk:1",
                       help="disk:R | annulus:R,r | rect:a,b | ngon:n,R | "
                            "lshape | mesh:PATH")
        p.add_argument("--h", type=_finite_float, default=0.02,
                       help="target interior mesh spacing")
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table")
        p.add_argument("--output", default=None,
                       help="write to a file instead of standard output")
        if mu_default is not None:
            p.add_argument("--mu", type=_finite_float, default=mu_default,
                           help="boundary integral constraint value")

    p = sub.add_parser("optimize", help="single constrained optimization")
    common(p, mu_default=-10.0)
    p.add_argument("--tol", type=_finite_float, default=None)
    p.add_argument("--dump-sigma", default=None, metavar="PATH",
                   help="write the boundary profile as arc_length,sigma CSV")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="constraint sweep as CSV")
    common(p)
    p.add_argument("--mu-from", type=_finite_float, required=True)
    p.add_argument("--mu-to", type=_finite_float, required=True)
    p.add_argument("--mu-count", type=int, default=10)
    p.add_argument("--timing", action="store_true",
                   help="fill the wall_seconds column (non-deterministic)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("heat-content", help="heat content curve as CSV")
    common(p)
    p.add_argument("--t-from", type=_finite_float, default=None)
    p.add_argument("--t-to", type=_finite_float, default=None)
    p.add_argument("--t-count", type=int, default=20)
    p.set_defaults(func=cmd_heat_content)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, mu_default=-10.0)
    p.add_argument("--suite", default="all",
                   help="optimality | asymptotic | heat | blowup | all")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corner-coeff", help="polygon corner coefficient")
    p.add_argument("--alpha", type=_finite_float, default=None)
    p.add_argument("--grid", type=int, default=None,
                   help="emit a CSV over a grid of angles instead")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_corner_coeff)

    p = sub.add_parser("oracle", help="closed-form reference values")
    common(p)
    p.add_argument("--s", type=_finite_float, default=None)
    p.add_argument("--sigma", type=_finite_float, default=None)
    p.add_argument("--mu", type=_finite_float, default=None)
    p.set_defaults(func=cmd_oracle)

    # let option values like -1e6 parse as numbers, not flags
    matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+\.?\d*[eE][-+]?\d+$")
    for sp in [parser, *sub.choices.values()]:
        sp._negative_number_matcher = matcher
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (RobinoptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # A program fault, not bad input: report it in one line rather
        # than a traceback, naming its type so that it can be told apart
        # from a RobinoptError.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
