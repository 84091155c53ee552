"""The lattice radius of the dyadic-ring bound that kernel._lattice_radius
replaced: the tests check that the ring-by-row count never picks a larger
R0 than this one.

R0 doubles from max(4 Im z / Im w, 8) until the tail beyond it is within
tol / 2.  Each ring Q < |cz+d|^2 <= 2Q counts every lattice point of the
disk |cz+d|^2 <= 2Q by disk packing, the packing radius half the exact
shortest vector of Z + Z z, prices each at the ring's inner edge, and the
rings close in a geometric series of ratio rb.
"""

import math

from cuspkernel import kernel, modgroup


def dyadic_radius(z, w, k: int, tol: float) -> float:
    """R0 of the dyadic-ring bound at the pair (z, w), or inf where that
    bound does not reach tol / 2 below R0 = 1e14 or MAX_COSETS pairs."""
    y, v = z.y, w.y
    ck = kernel._profile_constant(k)
    _, _, (uu, _, _, one) = modgroup._reduced_basis(z.x, y)
    rho = 0.5 * math.sqrt(uu / one)

    def npm(R):  # the +/- pairs with |cz+d|^2 <= R
        return 0.5 * (math.sqrt(R) / rho + 1.0) ** 2 + 1.0

    def lattice_tail(R0):
        total, Q = 0.0, R0
        for _ in range(250):
            s = v * Q / y
            g0 = math.exp(-0.5 * k * math.log((s + 1.0) ** 2 / (4.0 * s)))
            growth = (2.0 * s + 1.0) ** 2 / (2.0 * (s + 1.0) ** 2)
            rb = 2.0 * math.exp(-0.5 * k * math.log(growth))
            term = npm(2.0 * Q) * g0 * (2.0 + ck * (v + y / Q))
            total += term
            if rb < 1.0 and term < max(1e-4 * total, 1e-300):
                return total + term * rb / (1.0 - rb)
            Q *= 2.0
        return math.inf

    R0 = max(4.0 * (y / v), 8.0)
    while lattice_tail(R0) > 0.5 * tol:
        R0 *= 2.0
        if R0 > 1e14 or npm(R0) > modgroup.MAX_COSETS:
            return math.inf
    return R0
