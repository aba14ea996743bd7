"""ODE cocycle engine: integrate over the hull of a right-hand side and
check dissipative contraction, stability and omega-limit fiber
structure.

Every solve is :func:`solve_ivp`, an in-house Dormand-Prince 5(4) pair
with Shampine's quartic dense output. It repeats the arithmetic of
scipy 1.17.1's ``solve_ivp(method="RK45", dense_output=True)`` operation
for operation, so its steps, ``nfev`` and dense values agree with scipy
bit for bit, without importing ``scipy.integrate``.

The per-step contract: every stage sum, the step's combination, the
error estimate and the dense-output coefficients Q are each one
``np.dot`` on the same array layouts as scipy's, and so is each step's
dense-output product of Q with a C-contiguous (4, m) block of powers.
``np.dot`` may round with a fused multiply-add, and its bits are the
BLAS kernel's, which can change with the layout, so none of these dots
is rewritten. The rest is the same IEEE operations in fewer calls: the
times, step sizes, step bounds and error norm are Python floats; the
field guard tests each field value with a Python sum before it calls
``np.isfinite``; and the dense output forms x, its powers and h y + y_old
for a block of steps at once. A solve of one member with one component
(K d = 1) of a catalog field calls the field's one-component form, which
takes and returns Python floats, and its guard is one ``math.isfinite``.
That keeps every bit: the field holds no ``np.dot``, a sum over one
element is that element, and Python's float operations, ``math.sqrt``
among them, are the same correctly rounded IEEE 754 operations as
numpy's.

The one-sided dissipativity condition Re<x1-x2, f(t,x1)-f(t,x2)> <=
-kappa |x1-x2|^alpha with alpha > 2 yields the algebraic contraction
modulus

    omega_kappa(t, r) = (r^(2-alpha) + kappa (alpha-2) t)^(1/(2-alpha)),

derived from d/dt |D|^2 <= -2 kappa |D|^alpha. At kappa = 1 it is the
kappa-free form r (1 + (alpha-2) t r^(alpha-2))^(1/(2-alpha)); only the
kappa-aware bound is valid for kappa < 1.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import catalog as _catalog
from .errors import (
    BadOrderError,
    NonFiniteRhsError,
    StepSizeUnderflowError,
)
from .signal import SampledSignal, Window, check_shift, fiber_clusters


# ---------------------------------------------------------------------------
# system specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhsSpec:
    """Right-hand side of x' = f(t, x): catalog id or expression tree.

    ``forcing`` is a tabulated SampledSignal that catalog fields and
    ["forcing", i] expression nodes read by ``catalog.scalar_interp``.
    """

    kind: str                      # "catalog:<id>" or "expr"
    params: dict = field(default_factory=dict)
    expr: tuple = None             # one expression tree per component for kind="expr"
    forcing: SampledSignal = None

    def build(self):
        return _catalog.build_field(self.kind, _catalog.RHS_CATALOG, "rhs",
                                    self.params, self.expr, self.forcing)


@dataclass(frozen=True)
class IVP:
    rhs: RhsSpec
    x0: tuple
    t_span: Window
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    out_dt: float = None    # output grid step; defaults to span/1e4

    def __post_init__(self):
        if not (0 < self.rel_tol <= 1e-2 and 0 < self.abs_tol <= 1e-2):
            raise ValueError("tolerances must lie in (0, 1e-2]")
        if self.t_span.length <= 0:
            raise ValueError("t_span must be nondegenerate")


@dataclass(frozen=True)
class ConditionHParams:
    """kappa, alpha of the dissipativity condition; alpha > 2 strictly."""

    kappa: float
    alpha: float
    sample_box: tuple       # (lo, hi) per coordinate, e.g. ((-10,), (10,))
    n_pairs: int = 10000

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.alpha <= 2:
            raise ValueError("alpha must exceed 2 strictly")


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) tableau (J. Comput. Appl. Math. 6(1), 1980) and
# Shampine's quartic dense output (Math. Comp. 46, 1986), entered as
# scipy 1.17.1's RK45 enters them so that every constant has the same bits.
_RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
# step-size controller (Hairer, Norsett & Wanner, Solving ODEs I, II.4);
# the error estimator has order 4
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5
_EPS = np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
#: (stage, c_s, a_s): the rows of the tableau each stage sum reads
_RK_STAGES = [(s, float(_RK_C[s]), _RK_A[s, :s]) for s in range(1, 6)]
#: accepted steps whose dense output one block of :meth:`RK45Solution.sol` forms at once
_DENSE_BLOCK = 256


def _rms(x):
    # np.linalg.norm(x) / sqrt(size): the norm is sqrt(x.dot(x)) for a real 1-D x
    return math.sqrt(x.dot(x)) / x.size ** 0.5


@dataclass
class RK45Solution:
    """Outcome of :func:`solve_ivp`: status 0 reached the end of the span,
    -1 stopped on a step below ten spacings of t (``message`` says so).
    ``t`` holds t0 and the end of every accepted step, as scipy's result
    does, and ``steps`` one (y_old, Q) per accepted step for the dense
    output: the state at the step's start and its (n, 4) coefficients."""

    status: int
    message: str
    nfev: int
    t: np.ndarray
    steps: list

    def sol(self, t):
        """Dense output at the 1-D times ``t``, shape (n, len(t)).

        Each t is read on the step whose span holds it (the earlier step
        at a shared end, the first or last step outside the span). Every
        value is scipy's ``OdeSolution`` arithmetic: x = (t - t_old)/h, the
        powers x, x^2, x^3, x^4 by running products, one ``np.dot`` of the
        step's Q with its C-contiguous (4, m) power block, then h times
        that plus y_old. All but the dot run on blocks of steps at once.
        """
        t = np.asarray(t)
        order = np.argsort(t)
        t_sorted = t[order]
        seg = np.clip(np.searchsorted(self.t, t_sorted, side="left") - 1,
                      0, len(self.steps) - 1)
        cuts = np.concatenate(([0], np.flatnonzero(np.diff(seg)) + 1, [len(seg)]))
        t_old, h = self.t[:-1], np.diff(self.t)
        y_old = np.array([y for y, _ in self.steps]).T
        out = np.empty((y_old.shape[0], len(t)))
        for b in range(0, len(cuts) - 1, _DENSE_BLOCK):
            c = cuts[b:b + _DENSE_BLOCK + 1]
            rows = slice(c[0], c[-1])
            sb = seg[rows]
            hb = h[sb]
            x = (t_sorted[rows] - t_old[sb]) / hb
            p = np.cumprod(np.broadcast_to(x, (4, len(x))), axis=0)
            y = np.empty((len(out), len(x)))
            for i, j in zip(c[:-1] - c[0], c[1:] - c[0]):
                # a C-contiguous copy, as scipy's: BLAS may round a strided block otherwise
                y[:, i:j] = np.dot(self.steps[sb[i]][1], p[:, i:j].copy())
            y *= hb
            y += y_old[:, sb]
            out[:, order[rows]] = y
        return out


def solve_ivp(fun, t_span, y0, rtol, atol) -> RK45Solution:
    """Integrate y' = fun(t, y), y(t0) = y0 forward over t_span = (t0, t1)
    by RK45 with dense output: the Dormand-Prince 5(4) pair, local
    extrapolation, RMS error norm on atol + max(|y|, |y_new|) rtol.

    The arithmetic is scipy 1.17.1's ``solve_ivp(method="RK45",
    dense_output=True)`` operation for operation: the same starting step
    (the d0/d1/d2 rule), the same stage sums, the same step clipping and
    controller with no upper bound on the step, and rtol raised to 100 eps
    with a warning. So the steps, ``nfev`` and the dense values are
    scipy's, bit for bit (the module docstring gives the per-step
    contract). ``fun`` takes a float t and a float state of shape (n,)
    and returns shape (n,), or a float when n = 1; exceptions it raises
    propagate.
    """
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("y0 must be a finite 1-D state")
    if not t_bound > t:
        raise ValueError("t_span must run forward")
    if rtol < 100 * _EPS:
        warnings.warn(f"rtol is too small; using rtol = {100 * _EPS}", stacklevel=2)
        rtol = 100 * _EPS
    f = np.asarray(fun(t, y), dtype=float)

    # starting step
    span = t_bound - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, span)
    nfev = 2

    ts, steps = [t], []
    k = np.empty((7, len(y)))
    k[0] = f
    stages = [(s, c, k[:s].T, a) for s, c, a in _RK_STAGES]
    kt, kb = k.T, k[:-1].T
    abs_y = np.abs(y)
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return RK45Solution(-1, TOO_SMALL_STEP, nfev, np.array(ts), steps)
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            for s, c, ks, a in stages:
                k[s] = fun(t + c * h, y + np.dot(ks, a) * h)
            y_new = y + h * np.dot(kb, _RK_B)
            k[6] = fun(t + h, y_new)
            nfev += 6
            abs_y_new = np.abs(y_new)
            scale = atol + np.maximum(abs_y, abs_y_new) * rtol
            error_norm = _rms(np.dot(kt, _RK_E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        steps.append((y, kt.dot(_RK_P)))
        k[0] = k[6]
        t, y, abs_y = t_new, y_new, abs_y_new
        ts.append(t)
    return RK45Solution(0, "The solver successfully reached the end of the integration interval.",
                        nfev, np.array(ts), steps)


def integrate(ivp: IVP) -> SampledSignal:
    """Adaptive 5(4) Runge-Kutta (:func:`solve_ivp`) with dense output,
    resampled uniformly.

    The output grid step is ``ivp.out_dt``, else span/1e4; the integrator is
    deterministic for fixed inputs and agrees with scipy 1.17.1's RK45
    bit for bit. Blow-up surfaces as StepSizeUnderflowError, a non-finite
    field as NonFiniteRhsError. This is the one-member case of
    :func:`_integrate_family`.
    """
    return _integrate_family(ivp, [ivp.x0], [0.0])[0]


def _integrate_family(ivp: IVP, x0s, offsets):
    """Solutions of x' = f(t + offsets[k], x), x(a) = x0s[k], in one solve.

    The K members are stacked into one state of length K d and handed to
    one :func:`solve_ivp` call (in-house RK45, scipy's arithmetic bit for
    bit) with rtol/sqrt(K) and atol/sqrt(K). RK45 accepts a step
    when the RMS of the scaled error over all components is <= 1; with
    the tolerances so scaled, that RMS is sqrt(sum_k e_k^2) >= max_k e_k,
    where e_k is the RMS member k's solo run would see, so every member's
    local error test is at least as strict as in its own run. K = 1 is
    :func:`integrate`, bit for bit. ``ivp`` gives the field, the span, the
    tolerances and the output grid; its x0 is not read. Returns one
    SampledSignal per member on the output grid of ``ivp``.

    The field reads its forcing at every t + offsets[k], t in the span, so
    a forcing that does not cover them raises WindowOutOfDomainError
    before the solve; a field value with a NaN or inf raises
    NonFiniteRhsError. One member with one component (K d = 1) of a
    catalog field runs the field's one-component form on Python floats,
    with the numpy form's bits (module docstring); stacks, d > 1 states
    and ``expr`` fields run the numpy form.
    """
    rhs = ivp.rhs
    f = rhs.build()   # refuses an unknown catalog id
    x0s = np.asarray(x0s, dtype=float)
    k, d = x0s.shape
    offsets = np.asarray(offsets, dtype=float)
    _catalog.check_forcing_reads(rhs.forcing, ivp.t_span.a + offsets.min(),
                                 ivp.t_span.b + offsets.max())
    if np.all(offsets == offsets[0]):   # one shared time: the field gets a scalar t
        offsets = float(offsets[0])

    if k * d == 1 and rhs.kind != "expr":
        # one component of a catalog field: its Python-float form, the same bits
        f = _catalog.RHS_CATALOG[rhs.kind.split(":", 1)[1]]["one"](rhs.params, rhs.forcing)

        def guarded(t, y):
            v = f(t + offsets, y.item())
            if not math.isfinite(v):
                raise NonFiniteRhsError(f"rhs non-finite at t={t}")
            return v
    else:
        def guarded(t, y):
            # one member is one plain state, K members are a (K, d) stack
            v = f(t + offsets, y if k == 1 else y.reshape(k, d))
            if k > 1:
                v = v.reshape(-1)
            # any NaN or inf makes the sum non-finite; finite values may overflow it
            if not math.isfinite(sum(v.tolist())) and not np.isfinite(v).all():
                raise NonFiniteRhsError(f"rhs non-finite at t={t}")
            return v

    sol = solve_ivp(
        guarded,
        (ivp.t_span.a, ivp.t_span.b),
        x0s.reshape(-1),
        rtol=ivp.rel_tol / np.sqrt(k),
        atol=ivp.abs_tol / np.sqrt(k),
    )
    if sol.status == -1:
        raise StepSizeUnderflowError(sol.message)
    span = ivp.t_span.length
    dt = ivp.out_dt if ivp.out_dt is not None else span / 1e4
    n = SampledSignal.grid_len(ivp.t_span.a, ivp.t_span.b, dt)
    ts = ivp.t_span.a + dt * np.arange(n)
    ts[-1] = min(ts[-1], ivp.t_span.b)
    vals = sol.sol(ts).reshape(k, d, n)
    return [SampledSignal(t0=ivp.t_span.a, dt=dt, values=v.T, label=f"ivp:{ivp.rhs.kind}")
            for v in vals]


# ---------------------------------------------------------------------------
# Condition (H) and the contraction formulas
# ---------------------------------------------------------------------------

def condition_h_margin(rhs: RhsSpec, p: ConditionHParams, t_samples, seed: int = 0) -> float:
    """Worst sampled margin of the dissipativity inequality.

    margin = min over pairs and times of
    [-kappa |D|^alpha - Re<D, f(t,x1) - f(t,x2)>]; nonnegative means the
    condition holds on the sample (a certificate at sample resolution
    only). Pairs are fixed-seed pseudo-random plus a deterministic lattice
    (box corners against the centre and against the reversed corners).
    The field is called once per sample time on all pairs stacked; each
    pair's margin keeps the arithmetic of a one-pair evaluation (|D|^alpha
    by the scalar power), and pairs with D = 0 or a NaN margin are skipped.
    A forcing must cover the sample times (WindowOutOfDomainError).
    """
    if p.n_pairs < 1000:
        raise ValueError("need at least 10^3 sampled pairs")
    f = rhs.build()
    t_samples = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if t_samples.size:
        _catalog.check_forcing_reads(rhs.forcing, t_samples.min(), t_samples.max())
    lo = np.asarray(p.sample_box[0], dtype=float)
    hi = np.asarray(p.sample_box[1], dtype=float)
    d = len(lo)
    rng = np.random.default_rng(seed)
    x1s = rng.uniform(lo, hi, size=(p.n_pairs, d))
    x2s = rng.uniform(lo, hi, size=(p.n_pairs, d))
    # deterministic lattice pairs: corners against center and reversed corners
    center = (lo + hi) / 2
    corners = np.array(np.meshgrid(*zip(lo, hi))).T.reshape(-1, d) if d <= 6 else np.vstack([lo, hi])
    extra1 = np.vstack([corners, corners])
    extra2 = np.vstack([np.tile(center, (len(corners), 1)), corners[::-1]])
    x1s = np.vstack([x1s, extra1])
    x2s = np.vstack([x2s, extra2])

    delta = x1s - x2s
    nd = np.linalg.norm(delta, axis=1)
    keep = nd != 0.0
    delta, x1s, x2s = delta[keep], x1s[keep], x2s[keep]
    # numpy's array power rounds differently from the scalar pow
    decay = p.kappa * np.array([v ** p.alpha for v in nd[keep].tolist()])
    worst = np.inf
    for t in t_samples.tolist():
        df = f(t, x1s) - f(t, x2s)
        margin = -decay - np.real(np.sum(delta * df, axis=1))
        worst = np.fmin.reduce(margin, initial=worst)   # fmin skips NaN margins
    return float(worst)


def attraction_time(delta0: float, eps: float, kappa: float, alpha: float) -> float:
    """Closed-form L with omega_kappa(L, delta0) = eps.

    L = (eps^(2-alpha) - delta0^(2-alpha)) / (kappa (alpha-2)); at kappa=1,
    alpha=3 this equals the familiar [(delta0/eps)^(alpha-2) - 1] /
    (delta0 (alpha-2)).
    """
    if eps >= delta0:
        raise BadOrderError(f"need eps < delta0, got eps={eps}, delta0={delta0}")
    return (eps ** (2.0 - alpha) - delta0 ** (2.0 - alpha)) / (kappa * (alpha - 2.0))


# ---------------------------------------------------------------------------
# hull families, fibers, stability
# ---------------------------------------------------------------------------

@dataclass
class HullRun:
    shift: float
    x0: tuple
    sol: SampledSignal


def hull_solutions(rhs: RhsSpec, shifts, x0_set, horizon: float,
                   rel_tol: float = IVP.rel_tol, abs_tol: float = IVP.abs_tol,
                   out_dt: float = None):
    """Integrate y' = f^h(t, y) on [0, horizon] for every (shift h, initial state).

    All pairs are one stacked solve (:func:`_integrate_family`): the
    member for shift h reads the field at time t + h, forcing and ["t"]
    nodes alike, which is the hull element f^h(t, x) = f(t + h, x). h < 0
    raises ValueError, and h past a forcing's span raises EmptyDomainError,
    as :func:`signal.translate` does. Deterministic order: lexicographic in
    (shift index, x0 index).
    """
    shifts = [float(h) for h in shifts]
    for h in shifts:
        check_shift(rhs.forcing, h)
    x0s = [tuple(np.atleast_1d(np.asarray(x0, dtype=float))) for x0 in x0_set]
    pairs = [(h, x0) for h in shifts for x0 in x0s]
    if not pairs:
        return []
    ivp = IVP(rhs, x0s[0], Window(0.0, horizon), rel_tol, abs_tol, out_dt=out_dt)
    sols = _integrate_family(ivp, [x0 for _, x0 in pairs], [h for h, _ in pairs])
    return [HullRun(h, x0, sol) for (h, x0), sol in zip(pairs, sols)]


@dataclass
class FiberReport:
    per_shift: dict
    m: int
    constant: bool
    representatives: dict

    def to_dict(self):
        return {
            "per_shift": {f"{k:g}": v for k, v in self.per_shift.items()},
            "m": self.m,
            "constant": self.constant,
        }


def default_burn_in(h_params: ConditionHParams, cluster_tol: float) -> float:
    """Fiber-analysis burn-in when Condition (H) holds: the attraction time
    from the sample-box diameter down to the cluster tolerance."""
    lo = np.asarray(h_params.sample_box[0], dtype=float)
    hi = np.asarray(h_params.sample_box[1], dtype=float)
    diameter = float(np.linalg.norm(hi - lo))
    return attraction_time(diameter, cluster_tol, h_params.kappa, h_params.alpha)


def fiber_count(runs, burn_in: float, cluster_tol: float) -> FiberReport:
    """Cluster trailing solution segments per base shift; count fiber points.

    The consensus m is the count shared by every shift; non-constant counts
    are flagged (constant=False) and the modal count reported. Shifts are
    reported in increasing order.
    """
    runs = sorted(runs, key=lambda run: run.shift)   # stable: x0 order kept per shift
    reps, m, constant = fiber_clusters([(run.shift, run.sol) for run in runs],
                                       burn_in, cluster_tol)
    return FiberReport({h: len(ls) for h, ls in reps.items()}, m, constant, reps)


def uniform_stability_probe(rhs: RhsSpec, ref: SampledSignal, delta_grid, eps_grid,
                            restart_times, horizon: float,
                            rel_tol: float = IVP.rel_tol, abs_tol: float = IVP.abs_tol,
                            h_params: ConditionHParams = None):
    """Empirical delta(eps) stability table and L(eps) attraction table.

    For each restart time t0 (moved up to ref's grid) the reference state
    is offset by delta along the first coordinate and re-integrated over
    [t0, t0 + horizon], sampled at ref.dt. All (restart, delta) runs are
    one stacked solve (:func:`_integrate_family`): the member restarted at
    t0 integrates over [0, horizon] and reads the field at t + t0.
    Stability: largest sampled delta whose perturbations stay within eps
    for the whole horizon, for every restart. Attraction: worst observed
    re-entry lag into the eps-tube for the largest delta, compared against
    the closed-form attraction time when Condition (H) parameters are
    supplied.
    """
    delta_grid = sorted(float(d) for d in delta_grid)
    eps_grid = sorted(float(e) for e in eps_grid)
    delta0 = max(delta_grid)
    max_dev = {}       # (restart, delta) -> max deviation over horizon
    reentry = {}       # (restart, eps) -> lag after which deviation stays < eps

    members = []       # (restart, ref index, delta)
    x0s = []
    for t0r in restart_times:
        i0 = ref._index_of(t0r, round_up=True)
        for delta in delta_grid:
            x0 = ref.values[i0].real.copy()
            x0[0] += delta
            members.append((t0r, i0, delta))
            x0s.append(x0)
    ivp = IVP(rhs, tuple(x0s[0]), Window(0.0, horizon), rel_tol, abs_tol, out_dt=ref.dt)
    offsets = [ref.t0 + i0 * ref.dt for _, i0, _ in members]
    for (t0r, i0, delta), pert in zip(members, _integrate_family(ivp, x0s, offsets)):
        n = min(len(pert), len(ref) - i0)
        dv = pert.values[:n] - ref.values[i0:i0 + n]
        dist = np.sqrt(np.sum((dv * dv.conj()).real, axis=1))
        max_dev[(t0r, delta)] = float(np.max(dist))
        if delta == delta0:
            for eps in eps_grid:
                above = np.nonzero(dist >= eps)[0]
                if len(above) == 0:
                    lag = 0.0
                elif above[-1] == len(dist) - 1:
                    lag = np.inf   # never re-entered within the horizon
                else:
                    lag = (above[-1] + 1) * ref.dt
                reentry[(t0r, eps)] = lag

    stability = {}
    for eps in eps_grid:
        ok_deltas = [d for d in delta_grid
                     if all(max_dev[(t0r, d)] <= eps for t0r in restart_times)]
        stability[eps] = max(ok_deltas) if ok_deltas else 0.0
    attraction = {}
    for eps in eps_grid:
        if eps < delta0:
            attraction[eps] = max(reentry[(t0r, eps)] for t0r in restart_times)
    bounds = {}
    if h_params is not None:
        for eps in eps_grid:
            if eps < delta0:
                bounds[eps] = attraction_time(delta0, eps, h_params.kappa, h_params.alpha)
    return {"stability": stability, "attraction": attraction,
            "delta0": delta0, "bound": bounds}
