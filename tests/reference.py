"""Reference routes that the tests compare the package against; no request runs them."""

from amnmodes.fields import ZeroModeField
from amnmodes.polynomials import times_linear
from amnmodes.recurrence import AnsatzSolution, family_b0, instantiate_solution, verify_system


def lift_solution(s: AnsatzSolution) -> AnsatzSolution:
    """Order m -> m+1 via multiplication by (1 + |x|**2).

    The lifted coefficients are those of the polynomials in |x|**2 times
    1 + |x|**2, the adjacent-pair sums; the lift of an exact solution
    solves the order-(m+1) system with the same b0.
    """
    if any(r != 0 for r in verify_system(s)):
        raise ValueError("lift requires an exact (L_m) solution")
    return AnsatzSolution(s.m + 1, s.b0, times_linear(s.a, -1, 1), times_linear(s.b, -1, 1))


def enumerate_family(m: int) -> list[ZeroModeField]:
    """All 2(m+1) verified fields of order m, both root signs.

    Ordered by (j, sign) with the positive sign first; the designated
    field is the (j = m+1, +) member.
    """
    if m < 1:
        raise ValueError("family enumeration defined for m >= 1")
    return [ZeroModeField(instantiate_solution(m, family_b0(j, sign)))
            for j in range(1, m + 2) for sign in (1, -1)]
