"""Brent's method for a bracketed scalar root, stdlib only.

A step-for-step port of scipy.optimize.brentq (Brent 1973, *Algorithms for
Minimization without Derivatives*, ch. 4, as in scipy's brentq.c), so every
root it returns carries the same bits: the same half-tolerance, the same
interpolate / extrapolate / bisect choice and the same minimum step.  It
saves the package from importing scipy.optimize for one function.
"""

from __future__ import annotations

import sys

# iterations before RuntimeError; a constant, since a lower cap only cuts an answer short
_MAXITER = 100
_RTOL = 4 * sys.float_info.epsilon  # scipy's floor on rtol


def _value(f, x: float) -> float:
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _RTOL) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Stops when half the bracket is below (xtol + rtol |x|) / 2.  Raises
    ValueError for endpoints of equal sign or a NaN value of f, and
    RuntimeError after _MAXITER iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # both values are nonzero and not NaN from here on, so `< 0` is signbit
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if (fpre < 0) != (fcur < 0):  # scipy also asks fpre, fcur != 0; a zero fcur returns below anyway
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
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or NaN here, which fails the test below
                stry = float("nan")
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")
