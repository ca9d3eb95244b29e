"""Closed-form disk references and asymptotic predictions.

The radial solution of the resolvent problem on a disk reduces every
quantity of interest to modified-Bessel ratios, giving an exact channel
with no discretization error. The asymptotic predictions carry the
two-term expansions of the maximized eigenvalue for smooth domains (mean
curvature term), polygons (corner coefficient term), and the small
constraint regime (torsion term).
"""

import math
from dataclasses import dataclass

from scipy.special import i0e, i1e, j0, j1

from . import geometry, specfun
from .errors import GeometryError, SolverError

REGIME_SMOOTH = "smooth"
REGIME_POLYGON = "polygon"
REGIME_SMALL_MU = "small_mu"


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Two-term prediction lambda ~ leading * mu^2 + subleading * mu.

    For the small-mu regime the roles shift: ``leading`` multiplies mu and
    ``subleading`` multiplies mu^2.
    """

    leading: float
    subleading: float
    regime: str
    remainder_order: str

    def evaluate(self, mu):
        if self.regime == REGIME_SMALL_MU:
            return self.leading * mu + self.subleading * mu * mu
        return self.leading * mu * mu + self.subleading * mu


def _i1_over_i0(x):
    """I1(x)/I0(x) from the exponentially scaled functions: no overflow.

    ``i0e``/``i1e`` rather than ``ive``, which turns NaN past x = 1e10.
    """
    return float(i1e(x) / i0e(x))


def disk_F(radius, s):
    """Exact F(s) on a disk: -2 pi R kappa I1(kappa R)/I0(kappa R)."""
    if radius <= 0:
        raise GeometryError("radius must be positive")
    if s > 0:
        raise GeometryError("disk_F is defined for s <= 0")
    if s == 0:
        return 0.0
    kappa = math.sqrt(-s)
    return -2.0 * math.pi * radius * kappa * _i1_over_i0(kappa * radius)


def disk_s_of_mu(radius, mu):
    """Invert the exact disk F: unique s <= 0 with F(s) = mu (mu <= 0).

    The lower end of the bracket doubles until F falls below mu; Brent's
    method then finds the root to relative accuracy 1e-13, which holds
    down to the smallest |mu|.
    """
    if mu > 0:
        raise GeometryError("disk_s_of_mu handles mu <= 0; use "
                            "disk_robin_lambda for the positive branch")
    if mu == 0:
        return 0.0
    perim = 2.0 * math.pi * radius
    lo = -4.0 * (mu / perim) ** 2 - 1.0
    while disk_F(radius, lo) > mu:
        lo *= 2.0
    from scipy.optimize import brentq

    # brentq needs a positive xtol; one this small leaves the stop to rtol
    return brentq(lambda s: disk_F(radius, s) - mu, lo, 0.0,
                  xtol=1e-300, rtol=1e-13)


# a hair above the first zero of J0: J0 < 0 there for any radius, so the
# positive-branch root function is positive there for every sigma
_J0_FIRST_ZERO_ABOVE = 2.404825557695773 * (1.0 + 1e-15)


def disk_robin_lambda(radius, sigma):
    """Principal eigenvalue on a disk with a constant boundary parameter.

    Negative parameters give lambda = -k^2 with k I1(kR)/I0(kR) = -sigma;
    positive parameters give lambda = k^2 with k J1(kR) = sigma J0(kR),
    taking the first positive root. Both roots are bracketed from k = 0 and
    found by Brent's method to relative accuracy 1e-12 in k.
    """
    if radius <= 0:
        raise GeometryError("radius must be positive")
    if sigma == 0.0:
        return 0.0
    from scipy.optimize import brentq

    if sigma < 0:
        def root_fn(k):
            return k * _i1_over_i0(k * radius) + sigma

        hi = -sigma + 2.0 / radius + 1.0
    else:
        def root_fn(k):
            return k * j1(k * radius) - sigma * j0(k * radius)

        hi = _J0_FIRST_ZERO_ABOVE / radius
    try:
        # brentq needs a positive xtol; one this small leaves the stop to rtol
        k = brentq(root_fn, 0.0, hi, xtol=1e-300, rtol=1e-12,
                   maxiter=200)
    except RuntimeError as exc:
        raise SolverError(
            f"disk Robin root-find stalled for sigma={sigma:g}"
        ) from exc
    return -k * k if sigma < 0 else k * k


def disk_lambda_mu(radius, mu):
    """Exact maximized eigenvalue on a disk for constraint value ``mu``.

    By symmetry the optimal parameter on a disk is the constant
    mu / perimeter, so the maximized eigenvalue is the constant-parameter
    principal eigenvalue at that value.
    """
    return disk_robin_lambda(radius, mu / (2.0 * math.pi * radius))


def corner_sum(angles):
    """Sum of the corner coefficients c(alpha) over a tuple of interior
    angles, with one quadrature per distinct angle."""
    return sum(angles.count(a) * specfun.corner_coefficient(a)
               for a in dict.fromkeys(angles))


def predict_lambda(domain):
    """Two-term asymptotic prediction for a catalogue domain.

    Smooth domains use the boundary curvature integral; polygonal domains
    replace it with twice the sum of corner coefficients. Domains mixing
    smooth arcs and corners are not covered.
    """
    m = geometry.metrics(domain)
    p2 = m.perimeter**2
    if domain.kind in ("disk", "annulus"):
        return AsymptoticPrediction(
            leading=-1.0 / p2,
            subleading=m.curvature_integral / p2,
            regime=REGIME_SMOOTH,
            remainder_order="O(1)",
        )
    if domain.kind in ("rectangle", "ngon", "lshape"):
        return AsymptoticPrediction(
            leading=-1.0 / p2,
            subleading=2.0 * corner_sum(m.corner_angles) / p2,
            regime=REGIME_POLYGON,
            remainder_order="O(1)",
        )
    raise GeometryError(
        f"no asymptotic prediction for domain kind {domain.kind!r}; smooth "
        "and polygonal cases are handled separately"
    )


def small_mu_prediction(volume, torsion_integral):
    """Small-constraint expansion lambda ~ mu/|O| - mu^2 S/|O|^3.

    ``torsion_integral`` is the domain integral of the torsion function,
    equal to the Dirichlet eigen-sum of squared mean loadings over
    energies. Inverting the quadratic response puts the volume cubed in
    the second coefficient.
    """
    if volume <= 0 or torsion_integral <= 0:
        raise GeometryError("volume and torsion integral must be positive")
    return AsymptoticPrediction(
        leading=1.0 / volume,
        subleading=-torsion_integral / volume**3,
        regime=REGIME_SMALL_MU,
        remainder_order="O(mu^3)",
    )

