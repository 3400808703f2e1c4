"""DOP853 with dense output at given samples, numpy only.

The explicit Runge-Kutta pair of order 8 with error estimators of orders 5
and 3 and a degree-7 interpolant, by Dormand and Prince (Hairer, Nørsett and
Wanner, *Solving Ordinary Differential Equations I*, 2nd ed., §II.10).  A
step-for-step port of scipy.integrate.solve_ivp(method="DOP853", t_eval=...)
forward in time (scipy 1.17, BSD-3: `_ivp/rk.py`, `common.py`, `ivp.py`), so
every sample carries the same bits: the same initial step, step-size control,
error norm and interpolant, and the right-hand side called at the same points.
The coefficients are scipy's `dop853_coefficients.py`, digit for digit.  It
saves the package from importing scipy.integrate for one function.
"""

from __future__ import annotations

import math

import numpy as np

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_SAFETY = 0.9
_MIN_FACTOR = 0.2  # smallest decrease of the step size
_MAX_FACTOR = 10  # largest increase of the step size
_EXPONENT = -1 / 8  # of the error norm, for an error estimator of order 7

C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282, 0.6,
    0.857142857142857142857142857142, 1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778,
])

# A[i, :i]: the stages 0..11 step, 12 is the solution's weights B, 13..15 serve the interpolant
A = np.zeros((16, 16))
A[1, :1] = 5.26001519587677318785587544488e-2
A[2, :2] = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
A[3, :3] = 2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2
A[4, :4] = (2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
            9.24834003261792003115737966543e-1)
A[5, :5] = (3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
            1.25467687566822425016691814123e-1)
A[6, :6] = (3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
            -1.7578125e-2)
A[7, :7] = (3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
            1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3)
A[8, :8] = (6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
            -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
            -4.34898841810699588477366255144e1)
A[9, :9] = (4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
            -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
            -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2)
A[10, :10] = (-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
              1.09143734899672957818500254654, -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
              2.27394870993505042818970056734e1, 2.49360555267965238987089396762, -3.0467644718982195003823669022)
A[11, :11] = (2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
              -2.00087205822486249909675718444, -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
              -2.85899827713502369474065508674, -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
              6.43392746015763530355970484046e-1)
A[12, :12] = (5.42937341165687622380535766363e-2, 0, 0, 0, 0, 4.45031289275240888144113950566,
              1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
              -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
A[13, :13] = (5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0, 2.53500210216624811088794765333e-1,
              -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
              8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3)
A[14, :14] = (3.18346481635021405060768473261e-2, 0, 0, 0, 0, 2.83009096723667755288322961402e-2,
              5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0, 0,
              -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
              -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1)
A[15, :15] = (-4.28896301583791923408573538692e-1, 0, 0, 0, 0, -4.69762141536116384314449447206,
              7.68342119606259904184240953878, 4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
              0, 0, 0, -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
              -9.15095847217987001081870187138)
B = A[12, :12]

# error estimators over the 13 stages: E3 of order 3, E5 of order 5
E3 = np.zeros(13)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1
E5 = np.zeros(13)
E5[0] = 0.1312004499419488073250102996e-1
E5[5:12] = (-0.1225156446376204440720569753e+1, -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
            -0.3503288487499736816886487290, 0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
            -0.2235530786388629525884427845e-1)

# the interpolant's coefficients of degree 4..7 over the 16 stages
D = np.zeros((4, 16))
D[:, 0] = (-0.84289382761090128651353491142e+1, 0.10427508642579134603413151009e+2,
           0.19985053242002433820987653617e+2, -0.25693933462703749003312586129e+2)
D[0, 5:] = (0.56671495351937776962531783590, -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
            0.21170345824450282767155149946e+1, -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
            0.63157877876946881815570249290, -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
            -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1)
D[1, 5:] = (0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
            -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
            -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
            -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2)
D[2, 5:] = (-0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
            -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
            0.77771377980534432092869265740, -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
            0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2)
D[3, 5:] = (-0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
            0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
            0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
            -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3)


def _norm(x: np.ndarray) -> float:
    """Root mean square of x, a numpy float as in scipy (a division by it never raises)."""
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0: float, y: np.ndarray, f: np.ndarray, interval: float, rtol: float, atol: float) -> float:
    """solve_ivp's first step size; costs one right-hand side unless the interval is empty."""
    if interval == 0.0:
        return 0.0
    scale = atol + np.abs(y) * rtol
    d0, d1 = _norm(y / scale), _norm(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = _norm((fun(t0 + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _error_norm(K: np.ndarray, h: float, scale: np.ndarray) -> float:
    """DOP853's error norm, from its estimators of orders 5 and 3, in numpy floats
    (an overflow gives inf, as in scipy)."""
    err5, err3 = np.dot(K.T, E5) / scale, np.dot(K.T, E3) / scale
    e5, e3 = np.sqrt(err5.dot(err5)) ** 2, np.sqrt(err3.dot(err3)) ** 2
    if e5 == 0 and e3 == 0:
        return 0.0
    return abs(h) * e5 / np.sqrt((e5 + 0.01 * e3) * scale.size)


def _step(fun, t: float, y: np.ndarray, f: np.ndarray, h_abs: float, t1: float, K: np.ndarray, rtol: float, atol: float):
    """One accepted step from t, trying h_abs first: (t_new, y_new, f_new, next h_abs),
    or None when the step size falls below ten spacings of floats at t."""
    min_step = 10 * abs(math.nextafter(t, math.inf) - t)
    h_abs, rejected = max(h_abs, min_step), False
    while h_abs >= min_step:
        t_new = t + h_abs
        if t_new - t1 > 0:
            t_new = t1
        h = t_new - t
        h_abs = abs(h)
        K[0] = f
        for s in range(1, 12):
            K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
        y_new = y + h * np.dot(K[:12].T, B)
        f_new = K[12] = fun(t + h, y_new)
        error_norm = _error_norm(K[:13], h, atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol)
        if error_norm < 1:
            factor = _MAX_FACTOR if error_norm == 0 else min(_MAX_FACTOR, _SAFETY * error_norm**_EXPONENT)
            return t_new, y_new, f_new, h_abs * (min(1, factor) if rejected else factor)
        h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_EXPONENT)
        rejected = True
    return None


def _interpolate(fun, t: float, h: float, y: np.ndarray, y_new: np.ndarray, f_new: np.ndarray, K: np.ndarray,
                 t_out: np.ndarray) -> np.ndarray:
    """The states at t_out inside the step from t to t + h, as columns; costs
    three right-hand sides, for the stages 13..15."""
    for s in range(13, 16):
        K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
    dy = y_new - y
    F = np.vstack([dy, h * K[0] - dy, 2 * dy - h * (f_new + K[0]), h * np.dot(D, K)])
    x = ((t_out - t) / h)[:, None]
    out = np.zeros((t_out.size, y.size))
    for k, row in enumerate(F[::-1]):  # in the alternating order x, 1 - x
        out += row
        out *= x if k % 2 == 0 else 1 - x
    out += y
    return out.T


def dop853(fun, t0: float, t1: float, y0: np.ndarray, t_eval: np.ndarray, rtol: float, atol: float):
    """Integrate y' = fun(t, y) from t0 to t1 >= t0, sampled at t_eval, sorted in [t0, t1].

    Returns (t, y, message): the samples reached, the states there as the
    columns of y, and None, or on step failure the message solve_ivp gives.
    Raises ValueError where solve_ivp does: for samples out of order or a
    non-finite y0.
    """
    t0, t1 = float(t0), float(t1)
    t_eval = np.asarray(t_eval)
    if t1 > t0 and np.any(np.diff(t_eval) <= 0):
        raise ValueError("Values in `t_eval` are not properly sorted.")
    y = np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    f = fun(t0, y)
    h_abs = _initial_step(fun, t0, y, f, t1 - t0, rtol, atol)
    K = np.empty((16, y.size))  # stage store: 13 rows per step, 3 more for the interpolant
    t, ts, ys, i = t0, [], [], 0
    while t < t1:
        step = _step(fun, t, y, f, h_abs, t1, K, rtol, atol)
        if step is None:
            break
        t_new, y_new, f_new, h_abs = step
        j = int(np.searchsorted(t_eval, t_new, side="right"))
        if j > i:
            ts.append(t_eval[i:j])
            ys.append(_interpolate(fun, t, t_new - t, y, y_new, f_new, K, t_eval[i:j]))
            i = j
        t, y, f = t_new, y_new, f_new
    message = TOO_SMALL_STEP if t < t1 else None
    if not ts:
        return np.empty(0), np.empty((y.size, 0)), message
    return np.hstack(ts), np.hstack(ys), message
