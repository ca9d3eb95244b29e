"""Executable verification suites.

Each suite computes measured and expected values for a batch of cases and
returns a SuiteReport that serializes to JSON (deterministically) or an
aligned text table. Suites are deterministic given (domain, parameters,
seed).
"""

import json
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fem, geometry, optimizer, oracles
from .errors import GeometryError, ResolutionCapError


def _fmt12(x):
    return float(f"{float(x):.12g}")


@dataclass(frozen=True)
class CaseResult:
    description: str
    measured: float
    expected: float
    tolerance: float
    passed: bool

    def to_dict(self):
        return {
            "description": self.description,
            "measured": _fmt12(self.measured),
            "expected": _fmt12(self.expected),
            "tolerance": _fmt12(self.tolerance),
            "pass": bool(self.passed),
        }


@dataclass
class SuiteReport:
    suite: str
    cases: list = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.cases)

    def add(self, description, measured, expected, tolerance):
        self.cases.append(CaseResult(
            description, float(measured), float(expected), float(tolerance),
            bool(abs(measured - expected) <= tolerance),
        ))

    def add_bound(self, description, measured, bound):
        """Case that passes when measured <= bound."""
        self.cases.append(CaseResult(
            description, float(measured), float(bound), 0.0,
            bool(measured <= bound),
        ))

    def to_dict(self, deterministic=True):
        return {
            "suite": self.suite,
            "cases": [c.to_dict() for c in self.cases],
            "pass": self.passed,
            # wall time is excluded from machine output so identical runs
            # serialize byte-identically
            "runtime_s": None if deterministic else self.runtime_s,
        }

    def to_json(self, deterministic=True):
        return json.dumps(self.to_dict(deterministic), indent=2)

    def to_table(self):
        rows = [("case", "measured", "expected", "tol", "pass")]
        for c in self.cases:
            rows.append((
                c.description,
                f"{c.measured:.6g}",
                f"{c.expected:.6g}",
                f"{c.tolerance:.3g}",
                "pass" if c.passed else "FAIL",
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = ["  ".join(r[i].ljust(widths[i]) for i in range(5))
                 for r in rows]
        status = "pass" if self.passed else "FAIL"
        lines.append(f"suite {self.suite}: {status} "
                     f"({self.runtime_s:.1f}s)")
        return "\n".join(lines)


@dataclass(frozen=True)
class BlowupTrace:
    """Rayleigh quotients of the concentrating test family."""

    n_values: tuple
    quotients: tuple
    gradient_terms: tuple
    boundary_terms: tuple
    mu: float
    dimension: int = 2
    truncated_at: int | None = None


def _layer_for_mu(domain, mu, h=0.02):
    """Boundary-layer width for the expected shift at constraint mu.

    Clamped from below to what 12 geometric layers of grading can deliver
    at spacing h; beyond that the optimizer's resolution cap reports the
    admissible range instead of mesh generation failing.
    """
    m = geometry.metrics(domain)
    if domain.kind in ("disk", "annulus"):
        curv = m.curvature_integral / 2.0
    else:
        curv = oracles.corner_sum(m.corner_angles)
    # sqrt(s_est) ~ (|mu| + curv) / perimeter; past 1e100 the width is far
    # below the clamp anyway, and capping there keeps the square finite
    root = min((abs(mu) + max(0.0, curv)) / m.perimeter, 1e100)
    layer = 0.75 / math.sqrt(root**2 + 1.0)
    return max(layer, 4.0 * h * 2.0**-12 * (1.0 + 1e-9))


def mesh_for(domain, mu, h=0.02):
    """Mesh graded for the boundary layer the constraint value needs."""
    return geometry.generate_mesh(
        domain, h, boundary_layer_width=_layer_for_mu(domain, mu, h)
    )


# ---------------------------------------------------------------------------
# optimality
# ---------------------------------------------------------------------------

# relative amplitudes the optimality samples cycle through
_AMPLITUDES = (0.02, 0.1, 0.5)


def zero_mean_perturbations(mesh, samples, seed):
    """Seeded nodal noise with exact zero lumped boundary integral.

    Yields (amplitude_factor, values) pairs; amplitudes cycle through the
    relative factors 0.02, 0.1 and 0.5.
    """
    rng = np.random.default_rng(seed)
    w = fem.assemble(mesh).boundary_node_weights
    nb = len(mesh.boundary_nodes)
    for k in range(samples):
        eta = rng.uniform(-1.0, 1.0, nb)
        eta -= (eta @ w) / w.sum()
        yield _AMPLITUDES[k % len(_AMPLITUDES)], eta


def run_optimality_suite(domain, mu, samples=100, seed=0, h=0.02):
    """Sample the constraint class around the optimizer and check the sup.

    Every zero-mean perturbation of the optimal parameter must give an
    eigenvalue at most the maximized one; large perturbations must give a
    strict drop.
    """
    if mu > 0:
        raise GeometryError("optimality suite covers mu <= 0")
    if samples < 1:
        raise GeometryError("need at least one sample")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise GeometryError(f"seed must be a non-negative integer, got "
                            f"{seed!r}")
    t0 = time.perf_counter()
    report = SuiteReport(f"optimality[{domain} mu={mu:g} samples={samples} "
                         f"seed={seed}]")
    mesh = mesh_for(domain, mu, h)
    res = optimizer.optimize(mesh, mu)
    slack = 50.0 * res.tol
    scale = float(np.abs(res.sigma_mu.values).max()) or 1.0
    margins = []
    strong_drops = []
    for amp, eta in zero_mean_perturbations(mesh, samples, seed):
        sig = fem.BoundaryFunction(mesh, res.sigma_mu.values + amp * scale * eta)
        lam = fem.robin_principal_eigenvalue(
            mesh, sig, v0=res.u_mu.values.copy()
        ).eigenvalue
        margins.append(lam - res.s_mu)
        if amp >= 0.1:
            strong_drops.append(lam < res.s_mu - 1e-8 * (1.0 + abs(res.s_mu)))
    margins = np.array(margins)
    report.add_bound(
        f"worst eigenvalue margin over {samples} perturbed parameters",
        float(margins.max()), slack,
    )
    report.add(
        "count of margins above 50x tolerance",
        float((margins > slack).sum()), 0.0, 0.0,
    )
    report.add_bound(
        "fraction of strong perturbations without a strict drop",
        1.0 - (np.mean(strong_drops) if strong_drops else 1.0), 0.05,
    )
    # adversarial concentration: full mass on one boundary edge
    adv = np.zeros(len(mesh.boundary_nodes))
    w = fem.assemble(mesh).boundary_node_weights
    pos = {int(b): i for i, b in enumerate(mesh.boundary_nodes)}
    i0, i1 = (pos[int(v)] for v in mesh.boundary_edges[0])
    adv[[i0, i1]] = mu / (w[i0] + w[i1])
    lam_adv = fem.robin_principal_eigenvalue(
        mesh, fem.BoundaryFunction(mesh, adv)
    ).eigenvalue
    report.add_bound(
        "adversarial concentrated parameter stays below the maximum",
        lam_adv, res.s_mu + slack,
    )
    report.runtime_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def _lambda_mu_curve(domain, mu_grid, h):
    """Maximized eigenvalue per grid value: exact on a disk, FEM otherwise."""
    if domain.kind == "disk":
        return [oracles.disk_lambda_mu(domain.params[0], mu)
                for mu in mu_grid]
    out = []
    for mu in mu_grid:
        mesh = mesh_for(domain, mu, h)
        out.append(optimizer.optimize(mesh, mu).s_mu)
    return out


def run_asymptotic_suite(domain, mu_grid, h=0.01):
    """Check the two-term expansion against measured maximized eigenvalues.

    The remainder r(mu) = lambda - leading mu^2 - subleading mu must stay
    inside the band |r| <= 4 and show no trend beyond error bars. On a disk
    the exact channel is used. A grid spanning only |mu| <= 0.5 switches to
    the small-constraint expansion.
    """
    t0 = time.perf_counter()
    mu_grid = [float(m) for m in mu_grid]
    if not mu_grid:
        raise GeometryError("empty mu grid")
    report = SuiteReport(f"asymptotic[{domain} grid={len(mu_grid)}]")

    if max(abs(m) for m in mu_grid) <= 0.5:
        _small_mu_cases(domain, mu_grid, h, report)
        report.runtime_s = time.perf_counter() - t0
        return report

    if any(m >= 0 for m in mu_grid):
        raise GeometryError("asymptotic suite needs negative mu values")
    if domain.kind != "disk":
        _check_grid_admissible(domain, mu_grid, h)
    pred = oracles.predict_lambda(domain)
    lams = _lambda_mu_curve(domain, mu_grid, h)
    r = np.array([lam - pred.evaluate(mu)
                  for lam, mu in zip(lams, mu_grid)])
    band = 4.0
    report.add_bound(f"max |remainder| over mu grid (band {band:g})",
                     float(np.abs(r).max()), band)
    trend = abs(r[0] - r[-1])
    trend_bound = 0.05 * max(abs(m) for m in mu_grid) * abs(pred.subleading)
    if domain.kind == "disk":
        report.add_bound("remainder trend across the grid",
                         trend, trend_bound)
    else:
        lams_c = _lambda_mu_curve(domain, mu_grid, 1.5 * h)
        bars = np.abs(np.array(lams_c) - np.array(lams))
        spread = float(r.max() - r.min())
        report.add_bound(
            "remainder spread vs 4x inter-resolution error bars + 0.5",
            spread, 4.0 * float(bars.max()) + 0.5,
        )
        report.add_bound("remainder trend across the grid", trend,
                         max(trend_bound, 4.0 * float(bars.max()) + 0.5))
    report.runtime_s = time.perf_counter() - t0
    return report


def _small_mu_cases(domain, mu_grid, h, report):
    m = geometry.metrics(domain)
    if domain.kind == "disk":
        radius = domain.params[0]
        torsion = math.pi * radius**4 / 8.0
        lam_of = lambda mu: oracles.disk_lambda_mu(radius, mu)
    else:
        mesh = geometry.generate_mesh(domain, h)
        torsion = optimizer.small_mu_coefficient(mesh)
        lam_of = lambda mu: optimizer.optimize(mesh, mu).s_mu
    pred = oracles.small_mu_prediction(m.volume, torsion)
    for mu in mu_grid:
        if mu == 0:
            continue
        ratio = (lam_of(mu) - mu / m.volume) / mu**2
        report.add(
            f"quadratic response ratio at mu={mu:g}",
            ratio, pred.subleading, 0.02 * abs(pred.subleading),
        )


def _check_grid_admissible(domain, mu_grid, h):
    mesh = mesh_for(domain, min(mu_grid), h)
    cap = fem._s_cap(mesh)
    m = geometry.metrics(domain)
    curv = oracles.corner_sum(m.corner_angles)
    bad = [mu for mu in mu_grid
           if ((abs(mu) + max(0.0, curv)) / m.perimeter) ** 2 > cap]
    if bad:
        ok = [mu for mu in mu_grid if mu not in bad]
        raise ResolutionCapError(
            f"grid values {bad} exceed the boundary-layer cap; admissible "
            f"sub-grid: {ok}",
            admissible_mu=min(ok) if ok else None,
        )


# ---------------------------------------------------------------------------
# heat content
# ---------------------------------------------------------------------------

def run_heat_content_suite(domain, h=0.02):
    """Fit the small-time heat-content expansion and check the transform.

    Q(t) - area is fitted over t in [25 h^2, 100 h^2] against {sqrt(t), t};
    the sqrt(t) slope must reproduce the boundary length, and the linear
    term the curvature (smooth) or corner (polygon) coefficient. The
    zeroth-order sanity removes the known analytic terms from the data and
    checks the leftover constant against the mesh area to 0.1%. Over the
    window, the BDF2 ladder of ``fem._heat_curve`` must agree with the
    resolvent model's Ritz sum to 1e-3 of the lost heat. The
    Laplace-transform identity is checked at s = -0.5, -1 and -2.
    """
    t0 = time.perf_counter()
    report = SuiteReport(f"heat[{domain} h={h:g}]")
    mesh = geometry.generate_mesh(domain, h)
    m = geometry.metrics(domain)
    window = np.geomspace(25.0 * h * h, 100.0 * h * h, 20)
    curve = fem.heat_content(mesh, window)
    area = mesh.area()
    sqrt_exact = -2.0 * m.perimeter / math.sqrt(math.pi)
    if domain.kind in ("disk", "annulus"):
        # the heat flow sees the curvature signed by the inward normal: an
        # inner boundary circle enters with a minus sign, so an annulus has
        # no linear term at all
        # total turning is 2 pi for the outer loop, -2 pi for a hole
        lin_exact = math.pi if domain.kind == "disk" else 0.0
        # detecting a vanishing coefficient is window-limited; the window
        # scales with h^2, so the discrimination floor grows like h^3
        lin_tol = (0.35 * abs(lin_exact) if lin_exact
                   else 0.5 * max(1.0, (h / 0.02) ** 3))
        lin_label = "linear coefficient vs signed curvature integral / 2"
    else:
        lin_exact = oracles.corner_sum(m.corner_angles)
        lin_tol = 0.05 * abs(lin_exact) if lin_exact else 0.5
        lin_label = "linear coefficient vs corner coefficient sum"
    zeroth = float(np.mean(
        curve.values - sqrt_exact * np.sqrt(curve.times)
        - lin_exact * curve.times
    ))
    # 0.1% at the default spacing; the fit window scales with h^2, so the
    # neglected t^(3/2) term grows the leftover constant like h^3
    zeroth_tol = 1e-3 * area * max(1.0, (h / 0.02) ** 3)
    report.add("zeroth-order constant vs mesh area", zeroth, area,
               zeroth_tol)
    X = np.column_stack([np.sqrt(curve.times), curve.times])
    coef, *_ = np.linalg.lstsq(X, curve.values - area, rcond=None)
    report.add("sqrt(t) coefficient vs -2 |dO| / sqrt(pi)",
               coef[0], sqrt_exact, 0.03 * abs(sqrt_exact))
    report.add(lin_label, coef[1], lin_exact, lin_tol)
    # two independent time integrators over the window: the BDF2 ladder
    # against the resolvent model's Ritz sum
    ladder = fem._heat_curve(mesh, window[-1], t_small=window[0])
    ritz_sum = fem.resolvent_model(mesh).heat(np.append(0.0, window))[0]
    gap = np.abs(np.interp(window, ladder.times, ladder.values)
                 - ritz_sum[1:]) / (ritz_sum[0] - ritz_sum[1:])
    report.add_bound("BDF2 ladder vs Ritz sum over the window, of the lost "
                     "heat", float(gap.max()), 1e-3)
    for s in (-0.5, -1.0, -2.0):
        out = fem.laplace_transform_check(mesh, s)
        report.add(
            f"transform identity at s={s:g} (relative)",
            out["rhs"] / out["lhs"], 1.0, 0.02,
        )
    report.runtime_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# blow-up demonstration
# ---------------------------------------------------------------------------

def _blowup_mesh(domain, n_max):
    """Mesh graded toward the concentration point s0 on the boundary.

    Returns (mesh, s0). Supports the disk (s0 at angle 0) and rectangles
    (s0 at the bottom-edge midpoint), at interior spacing 0.1.
    """
    h = 0.1
    # the finest support the 12-layer grading resolves; smaller requests
    # lead to trace truncation, not a meshing failure
    w = max(2.0 ** (-n_max), 4.0 * h * 2.0**-12 * (1.0 + 1e-9))
    if domain.kind == "disk":
        radius = domain.params[0]
        half = geometry._graded_1d(math.pi, h / radius, w / radius, 0.0)
        angles = np.concatenate([-half[:0:-1], half[:-1]])
        radii = geometry._graded_1d(radius, h, 0.0, w)[1:]
        mesh = geometry._ring_mesh(radii, [angles] * len(radii),
                                   geometry._polar, h, w, True)
        return mesh, np.array([radius, 0.0])
    if domain.kind == "rectangle":
        a, b = domain.params
        xs = np.concatenate([
            geometry._graded_1d(a / 2, h, 0.0, w),
            a / 2 + geometry._graded_1d(a / 2, h, w, 0.0)[1:],
        ])
        ys = geometry._graded_1d(b, h, w, 0.0)
        mesh = geometry._tensor_mesh(xs, ys, h, w)
        return mesh, np.array([a / 2, 0.0])
    raise GeometryError(
        "blow-up demo supports disk and rectangle domains"
    )


def run_blowup_demo(domain, mu, n_max=8):
    """Rayleigh-quotient trace of the concentrating boundary family.

    For each n, the parameter puts the whole constraint mass on the
    boundary ball of radius 2^-n around s0, and the test function rises
    from 1 to a log-log profile inside the ball of radius 1/n. The
    quotient of this explicit pair decreases without bound as n grows.
    The mesh has interior spacing 0.1, graded toward s0.
    """
    if mu >= 0:
        raise GeometryError("blow-up demo needs mu < 0")
    if n_max < 4:
        raise GeometryError("log-log test functions need n >= 4")
    mesh, s0 = _blowup_mesh(domain, n_max)
    asm = fem.assemble(mesh)
    w = asm.boundary_node_weights
    dist = np.linalg.norm(mesh.nodes - s0, axis=1)
    bdist = dist[mesh.boundary_nodes]
    floor = 0.5 * dist[dist > 0].min()

    quotients = []
    grads = []
    bterms = []
    ns = []
    truncated = None
    for n in range(4, n_max + 1):
        support = bdist <= 2.0 ** (-n)
        if support.sum() < 3:
            truncated = n
            warnings.warn(
                f"mesh cannot resolve the 2^-{n} support; trace truncated",
                stacklevel=2,
            )
            break
        u = np.ones(len(mesh.nodes))
        ball = dist < 1.0 / n
        rho = np.maximum(dist[ball], floor)
        u[ball] = np.log(np.abs(np.log(rho))) / math.log(math.log(n))
        sig = np.zeros(len(mesh.boundary_nodes))
        sig[support] = mu / float(w[support].sum())
        grad = float(u @ (asm.K @ u))
        bt = float((sig * w) @ u[mesh.boundary_nodes] ** 2)
        mass = float(u @ (asm.M @ u))
        ns.append(n)
        quotients.append((grad + bt) / mass)
        grads.append(grad)
        bterms.append(bt)
    return BlowupTrace(
        tuple(ns), tuple(quotients), tuple(grads), tuple(bterms),
        float(mu), 2, truncated,
    )


def run_blowup_suite(domain, mu=-1.0, n_max=8):
    """SuiteReport wrapper around the blow-up trace."""
    t0 = time.perf_counter()
    report = SuiteReport(f"blowup[{domain} mu={mu:g} n_max={n_max}]")
    trace = run_blowup_demo(domain, mu, n_max)
    q = np.array(trace.quotients)
    drops = np.diff(q)
    non_monotone = int((drops >= 0).sum())
    report.add(
        "non-monotone steps in the quotient trace "
        f"(n={trace.n_values[0]}..{trace.n_values[-1]})",
        non_monotone, 0.0, 1.0 if trace.truncated_at else 0.0,
    )
    report.add_bound("final quotient is negative", float(q[-1]), 0.0)
    report.add_bound(
        "gradient term shrinks along the trace",
        trace.gradient_terms[-1], trace.gradient_terms[0],
    )
    report.add_bound(
        "boundary term dominates the gradient term at the end",
        trace.gradient_terms[-1], abs(trace.boundary_terms[-1]),
    )
    report.runtime_s = time.perf_counter() - t0
    return report


def _suite_runs(domain, mu, samples, seed, h):
    """Each suite's run for the verify options, by suite name.

    The one definition of the arguments the suites get, whether run alone
    or by ``run_all_suites``. The optimality suite takes the options as
    they are. The asymptotic suite runs on a fixed grid (ten mu values
    from -200 to -20 on a disk, five from -24 to -8 elsewhere) at spacing
    max(h, 0.015), and the heat suite at max(h, 0.02). The blow-up suite
    runs at mu = -1, for which its early trace is monotone.
    """
    grid = (np.linspace(-200.0, -20.0, 10) if domain.kind == "disk"
            else np.linspace(-24.0, -8.0, 5))
    return {
        "optimality": lambda: run_optimality_suite(
            domain, mu, samples=samples, seed=seed, h=h),
        "asymptotic": lambda: run_asymptotic_suite(
            domain, list(grid), h=max(h, 0.015)),
        "heat": lambda: run_heat_content_suite(domain, h=max(h, 0.02)),
        "blowup": lambda: run_blowup_suite(domain, mu=-1.0),
    }


def run_all_suites(domain, mu=-10.0, samples=100, seed=0, h=0.02):
    """Optimality, asymptotic, heat, and blow-up suites in order.

    The blow-up suite runs on disks and rectangles only; ``_suite_runs``
    gives every suite's arguments.
    """
    runs = _suite_runs(domain, mu, samples, seed, h)
    if domain.kind not in ("disk", "rectangle"):
        del runs["blowup"]
    return [run() for run in runs.values()]
