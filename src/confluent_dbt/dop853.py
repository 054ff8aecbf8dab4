"""The explicit Runge-Kutta method DOP853 with its dense output.

Dormand and Prince's 12-stage method of order 8 (Hairer, Norsett and
Wanner, *Solving Ordinary Differential Equations I*, 2nd ed., Sec. II.5
and II.10): the step is controlled by the combined 5th/3rd-order error
estimate, the first step is chosen as in Sec. II.4, and three more stages
give a 7th-order interpolant on each accepted step.  The operations run in
the same order as in scipy's `solve_ivp(method="DOP853")`, which the tests
use as the reference.
"""

from __future__ import annotations

import numpy as np

# the tableau: nodes C, the strictly lower triangle of A one row per stage
# (stage 12 holds the weights B; stages 13-15 serve the dense output), the
# two error estimators and the dense output's coefficients
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778,
])
_A_ROWS = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
     0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0, 0,
     -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_A = np.zeros((16, 16))
for _i, _row in enumerate(_A_ROWS):
    _A[_i, : len(_row)] = _row
_B = _A[12, :12]
_E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
    0.20136540080403034, 0.02265179219836082, 0,
])
_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294, 0,
])
_D = np.array([
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),
])

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
EXPONENT = -1 / 8  # the error estimate is of order 7


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


def _first_step(fun, t0, y0, f0, t_bound, direction, rtol, atol):
    """Initial step from the sizes of y0, f0 and a trial Euler step's
    change of f (Hairer, Norsett and Wanner, Sec. II.4)."""
    span = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


def _stages(fun, t, y, h, K, first, last):
    """Fill K[first:last] with the stages built from K[:first]."""
    for s in range(first, last):
        dy = np.dot(K[:s].T, _A[s, :s]) * h
        K[s] = fun(t + _C[s] * h, y + dy)


def _error_norm(K, h, scale):
    """RMS norm of the 5th-order error estimate, damped by the 3rd-order
    one where that is large (Hairer, Norsett and Wanner, Sec. II.10)."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_2, err3_2 = np.linalg.norm(err5) ** 2, np.linalg.norm(err3) ** 2
    if err5_2 == 0 and err3_2 == 0:
        return 0.0
    denom = err5_2 + 0.01 * err3_2
    return np.abs(h) * err5_2 / np.sqrt(denom * len(scale))


def solve(rhs, t0: float, t_bound: float, y0, rtol: float, atol: float):
    """Integrate y' = rhs(t, y) from t0 to t_bound (t_bound != t0) and
    return the dense output: a function of a 1-D array of t that gives y
    with one row per component.  The interpolant of the step that holds a
    point is used; a step boundary belongs to the earlier step.  Raises
    ValueError when the step size falls below ten float spacings of t."""
    fun = lambda t, y: np.asarray(rhs(t, y), dtype=float)
    t, y = float(t0), np.asarray(y0, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    direction = np.sign(t_bound - t)
    f = fun(t, y)
    h_abs = _first_step(fun, t, y, f, t_bound, direction, rtol, atol)
    K = np.empty((16, len(y)))
    ts, y_old, F = [t], [], []
    while direction * (t - t_bound) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ValueError(
                    "integration failed: Required step size is less than "
                    "spacing between numbers."
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            _stages(fun, t, y, h, K, 1, 12)
            y_new = y + h * np.dot(K[:12].T, _B)
            f_new = fun(t + h, y_new)
            K[12] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K[:13], h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**EXPONENT)
            rejected = True
        # the interpolant of the accepted step
        _stages(fun, t, y, h, K, 13, 16)
        delta = y_new - y
        F.append(
            np.concatenate((
                [delta, h * f - delta, 2 * delta - h * (f_new + f)],
                h * np.dot(_D, K),
            ))
        )
        y_old.append(y)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
    return _dense_output(np.array(ts), np.array(y_old), np.array(F))


def _dense_output(ts, y_old, F):
    last = len(F) - 1

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        if ts[-1] > ts[0]:
            seg = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, last)
        else:
            seg = last - np.clip(
                np.searchsorted(ts[::-1], t, side="right") - 1, 0, last
            )
        x = ((t - ts[seg]) / (ts[seg + 1] - ts[seg]))[:, None]
        y = np.zeros((len(t), y_old.shape[1]))
        # Horner-like scheme in x and 1 - x, highest coefficient first
        for i, coeff in enumerate(F[seg][:, ::-1].transpose(1, 0, 2)):
            y += coeff
            y *= x if i % 2 == 0 else 1 - x
        y += y_old[seg]
        return y.T

    return evaluate
