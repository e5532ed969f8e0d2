"""A deliberately broken map set for fault-injection tests.

The fault is a vertical stretch about the torus level: the image action is
replaced by ``c + factor*(P - c)`` while the angle coordinate is untouched.
Applied consistently to the forward map, its inverse, and its Jacobian
(whose returned image is stretched exactly as the forward map's), this
keeps the round trip exact, fixes the midline pointwise, and (for stretch
factors this close to 1) stays inside the action band — so of all the
shipped checks exactly the area-preservation one fails, with worst
determinant error ``factor - 1``.
"""

from relpack import discmap
from relpack.verify import MapSet

STRETCH = 1.01


def stretched_maps(factor=STRETCH) -> MapSet:
    """Map set whose Jacobian determinant is ``factor`` everywhere."""

    def stretch(P, params):
        return params.c + factor * (P - params.c)

    def fwd(q, p, params):
        Q, P = discmap.sigma(q, p, params)
        return Q, stretch(P, params)

    def inv(Q, P, params):
        return discmap.sigma_inv(Q, params.c + (P - params.c) / factor, params)

    def jac(q, p, params):
        Q, P, J = discmap.sigma_jacobian(q, p, params)
        J[..., 1, :] *= factor
        return Q, stretch(P, params), J

    return MapSet(sigma=fwd, sigma_inv=inv, sigma_jacobian=jac)
