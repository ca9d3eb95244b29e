"""The corner coefficient c(alpha) of the polygon heat content.

c(alpha) controls the linear term of the small-time heat content of a
polygon (van den Berg & Srisatkunarajah, PTRF 86, 1990). It is computed by
``scipy.integrate.quad`` of an integrand that cannot overflow.

All functions here are stateless and safe for concurrent use.
"""

import math

from .errors import GeometryError


def corner_coefficient(alpha):
    """Corner coefficient c(alpha) for an interior angle alpha in (0, 2 pi).

    c(alpha) = int_0^inf 4 sinh((pi-alpha)x) / (sinh(pi x) cosh(alpha x)) dx,
    positive for alpha < pi, zero at alpha = pi, negative beyond. The
    integrand is evaluated in an exponential form that cannot overflow, with
    the removable x = 0 singularity handled by its series limit.
    """
    if not 0.0 < alpha < 2.0 * math.pi:
        raise GeometryError("corner_coefficient requires alpha in (0, 2*pi)")
    if abs(alpha - math.pi) < 1e-14:
        return 0.0
    # scipy.integrate costs a quarter second to import; most runs never
    # reach a polygon corner
    from scipy.integrate import quad

    two_pi = 2.0 * math.pi

    def integrand(x):
        if x < 1e-8:
            return 4.0 * (math.pi - alpha) / math.pi
        ea = math.expm1(-2.0 * alpha * x)
        ep = math.expm1(-two_pi * x)
        # 8 (e^{-2 a x} - e^{-2 pi x}) / ((1 - e^{-2 pi x})(1 + e^{-2 a x}))
        return 8.0 * (ea - ep) / ((-ep) * (2.0 + ea))

    value, _ = quad(integrand, 0.0, math.inf, epsabs=1e-13, epsrel=1e-12,
                    limit=200)
    return value
