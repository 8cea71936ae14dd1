"""One-dimensional root solves: ``brent_root`` solves each branch of the
loaded line's characteristic equation (``loadedline``) and, through
``calibrate_scalar``, a junction calibration (``analysis``), each to the
stopping rule its caller passes."""

import math

from .errors import NumericalError, TargetOutOfRange

# stopping rule of the root solve in calibrate_scalar: relative and absolute
# tolerance on x (see its docstring for the bound that holds) and iteration cap
CALIBRATION_RTOL = 1e-6
CALIBRATION_XTOL = 2e-12
CALIBRATION_MAXITER = 100


def calibrate_scalar(
    response,
    target: float,
    bounds: tuple[float, float],
    fmt="{:.6g}".format,
) -> float:
    """Monotone scalar calibration: find x in ``bounds`` with response(x) =
    target. The endpoint responses must bracket the target, otherwise
    TargetOutOfRange is raised, quoting them as rendered by ``fmt``.

    The root is solved by ``brent_root``, which is handed the endpoint
    responses, so ``response`` runs once per x. It stops once the root is
    bracketed to CALIBRATION_XTOL = 2e-12 plus CALIBRATION_RTOL * |x|. For x
    in henries the absolute term dominates: the root holds to 2e-12 H, not
    to 1e-6 relative. A NaN response, at an endpoint too, or no convergence
    within CALIBRATION_MAXITER iterations raises NumericalError."""
    lo, hi = bounds
    at_lo, at_hi = _not_nan(lo, response(lo)), _not_nan(hi, response(hi))
    low, high = sorted((at_lo, at_hi))
    if not low <= target <= high:
        raise TargetOutOfRange(
            f"target {fmt(target)} outside the endpoint range [{fmt(low)}, {fmt(high)}]"
        )
    return float(brent_root(lambda x: response(x) - target, lo, hi,
                            at_lo - target, at_hi - target, xtol=CALIBRATION_XTOL,
                            rtol=CALIBRATION_RTOL, maxiter=CALIBRATION_MAXITER))


def brent_root(f, a: float, b: float, fa: float, fb: float, *,
               xtol: float, rtol: float, maxiter: int) -> float:
    """Root of ``f`` between ``a`` and ``b`` by Brent's method (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4), given fa =
    f(a) and fb = f(b) of opposite signs. It takes the steps of scipy's
    ``brentq`` operation for operation, so the iterates and the root equal
    its bit for bit: it stops at a zero of f or once half the bracket is
    below (xtol + rtol * |x|) / 2, and raises NumericalError at a NaN value
    of f (naming x) or after ``maxiter`` iterations."""
    xpre, xcur = a, b
    fpre, fcur = _not_nan(a, fa), _not_nan(b, fb)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise TargetOutOfRange(f"f({a!r}) and f({b!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; the slopes may underflow to zero
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = _divide(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _not_nan(xcur, f(xcur))
    raise NumericalError(f"root solve did not converge in {maxiter} iterations; last x={xcur!r}")


def _not_nan(x: float, fx: float) -> float:
    if math.isnan(fx):
        raise NumericalError(f"the function value at x={x!r} is NaN; the root solve cannot continue")
    return fx


def _divide(num: float, den: float) -> float:
    """num / den as in IEEE 754 arithmetic, which gives inf or NaN where
    Python's float division raises ZeroDivisionError."""
    if den != 0:
        return num / den
    if num == 0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)
