"""Time-varying monic polynomial equations: roots, discriminant, branches.

x^n + a_1(t) x^(n-1) + ... + a_n(t) = 0 with complex coefficient paths,
scalar signals on one grid (`on_grid` holds the tolerances; a roots config
builds each path as scale * source + offset, see `cli`).
Roots come in closed form up to degree 2 and from the eigenvalues of
each grid point's companion matrix above that (real matrices for real
paths), Newton-polished and checked against a residual gate; every point
is solved independently. Each root continues as its nearest root at the
next grid point, which the step guard makes the optimal assignment at
every degree, and the step maps are composed along the grid. Near
discriminant zeros the guard refuses to fabricate branches and reports
the offending interval instead. `roots_report` assembles the certificate
(branches, separation, root bound, branch classification); the zhikov
experiment is x^2 - p(t) run through it.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import BranchCollisionError, NonConvergenceError
from .signal import SampledSignal

#: residual tolerance scale: |P(t, root)| <= RESIDUAL_RTOL * (1 + A(t))^n
RESIDUAL_RTOL = 1e-10

#: no branch continuation once |D| falls below this times the path scale
COLLISION_ABS_D = 1e-8


def on_grid(s, t0, dt, n):
    """Whether signal s holds n samples from t0 in steps of dt, to the
    tolerances every PolyPath coefficient meets (1e-9 in t0, 1e-12 in dt)."""
    return len(s) == n and abs(s.t0 - t0) <= 1e-9 and abs(s.dt - dt) <= 1e-12


@dataclass(frozen=True)
class PolyPath:
    """Monic polynomial with coefficient signals a_1..a_n on a common grid."""

    coeffs: tuple
    label: str = ""

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if not cs:
            raise ValueError("need at least one coefficient path")
        c0 = cs[0]
        for c in cs:
            if c.dim != 1:
                raise ValueError("coefficient signals must be scalar")
            if not on_grid(c, c0.t0, c0.dt, len(c0)):
                raise ValueError("coefficient signals must share one grid")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self):
        return len(self.coeffs)

    @property
    def grid(self):
        return self.coeffs[0]

    def times(self):
        return self.grid.times()

    def coef_matrix(self):
        """(N, n) complex matrix of a_1..a_n along the grid; built once, read-only."""
        return self._coef_matrix

    @functools.cached_property
    def _coef_matrix(self):
        m = np.column_stack([c.values[:, 0].astype(np.complex128) for c in self.coeffs])
        m.flags.writeable = False
        return m


def roots_grid(p: PolyPath):
    """All roots along the grid, (N, n) complex; order per point is arbitrary.

    The roots of every grid point are refused unless each passes the
    residual gate |P(t, root)| <= RESIDUAL_RTOL * (1 + A(t))^n.
    """
    coefs = p.coef_matrix()
    try:
        roots = _kernels.aberth_grid(coefs)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"root solve failed: {exc}") from exc
    res = np.abs(_kernels.horner(coefs, roots)[0])
    with np.errstate(over="ignore"):  # a scale past the float range refuses no finite residual
        scale = RESIDUAL_RTOL * (1.0 + np.max(np.abs(coefs), axis=1)) ** coefs.shape[1]
    worst = float(np.max(res / scale[:, None]))
    if not worst <= 1.0:
        raise NonConvergenceError(
            f"roots above residual tolerance (worst ratio {worst:.3g})",
            worst_residual=float(np.max(res)),
        )
    return roots


def discriminant_from_roots(roots):
    """prod over ordered pairs i != j of (root_i - root_j), vectorized."""
    n = roots.shape[1]
    if n < 2:
        return np.ones(roots.shape[0], dtype=np.complex128)
    prod_sq = np.ones(roots.shape[0], dtype=np.complex128)
    for i in range(n):
        for j in range(i + 1, n):
            d = roots[:, i] - roots[:, j]
            prod_sq *= d * d
    sign = (-1.0) ** (n * (n - 1) // 2)
    return sign * prod_sq


def discriminant_signal(p: PolyPath, roots=None) -> SampledSignal:
    """D(t) as the ordered-pair product over root differences."""
    if roots is None:
        roots = roots_grid(p)
    vals = discriminant_from_roots(roots)
    g = p.grid
    return SampledSignal(t0=g.t0, dt=g.dt, values=vals.astype(np.complex128),
                         label=f"discriminant:{p.label}")


# ---------------------------------------------------------------------------
# branch tracking
# ---------------------------------------------------------------------------

@dataclass
class RootBranches:
    branches: list
    residual_max: float
    discriminant: SampledSignal
    #: per grid point, the least distance between two branches; inf below two
    separation: np.ndarray

    @property
    def degree(self):
        return len(self.branches)

    def branch_matrix(self):
        return np.column_stack([b.values[:, 0] for b in self.branches])


def _pairwise_separation(roots):
    """Per-row min over pairs i < j of |root_i - root_j|; inf below two roots."""
    n = roots.shape[1]
    sep = np.full(roots.shape[0], np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            sep = np.minimum(sep, np.abs(roots[:, i] - roots[:, j]))
    return sep


def _prefix_compose(q):
    """Compose an (N, n) table of index maps along its rows, in place.

    Row k ends as s_k[s_(k-1)[... s_0]] with s_k the input rows, which is
    what the loop `q[k] = q[k][q[k-1]]` for k = 1..N-1 leaves. The doubling
    scan (Hillis & Steele, CACM 1986) does it in log2(N) gathers over the
    whole table; integer composition is exact, so the result is too.
    """
    d = 1
    while d < len(q):
        q[d:] = np.take_along_axis(q[d:], q[:-d], axis=1)
        d *= 2
    return q


def _compose_branches(raw, steps):
    """Branch matrix where root raw[k-1][i] continues as raw[k][steps[k-1][i]].

    Branches start in canonical order: the raw[0] roots sorted by real
    part, then imaginary part. An identity step leaves the composed map as
    it was, so only the start and the steps that move a root are composed;
    every other row repeats the last composed map before it.
    """
    n = raw.shape[1]
    moved = np.flatnonzero(np.any(steps != np.arange(n), axis=1)) + 1
    q = np.empty((len(moved) + 1, n), dtype=np.intp)
    q[0] = np.lexsort((raw[0].imag.round(12), raw[0].real.round(12)))
    q[1:] = steps[moved - 1]
    last = np.zeros(raw.shape[0], dtype=np.intp)
    last[moved] = 1
    return np.take_along_axis(raw, _prefix_compose(q)[np.cumsum(last)], axis=1)


def _nearest_steps(raw):
    """(steps, distances, crossed): steps[k][i] indexes the root of raw[k+1]
    nearest to raw[k][i] (the first on a tie), at distance distances[k][i].
    crossed[k] marks a step where two roots chose one root; its map is then
    the identity, so that it still composes.
    """
    prev, cur = raw[:-1], raw[1:]
    dist = np.full(prev.shape, np.inf)
    steps = np.zeros(prev.shape, dtype=np.intp)
    for j in range(raw.shape[1]):
        d = np.abs(cur[:, j, None] - prev)
        steps = np.where(d < dist, j, steps)
        dist = np.minimum(dist, d)
    crossed = np.any(np.diff(np.sort(steps, axis=1), axis=1) == 0, axis=1)
    steps[crossed] = np.arange(raw.shape[1])
    return steps, dist, crossed


def track_branches(p: PolyPath) -> RootBranches:
    """Continuous root branches by nearest-root continuation.

    Each root at t_(k-1) continues as its nearest root at t_k; the step
    maps are composed along the grid by a prefix scan. Branch order is
    canonical: the t0 roots sorted by real part, then imaginary part.
    Raises BranchCollision with the offending interval when a step moves a
    root by half the least separation delta at its start or more, sends
    two roots to one, or |D| falls below the collision floor.

    If some assignment moves every root by less than delta/2, the triangle
    inequality puts each root of t_k more than delta/2 from every root of
    t_(k-1) but its own: that assignment is the nearest-root map and the
    unique optimum of any cost that grows with distance. If none does, the
    guard refuses the step. This holds for the computed distances except
    at ties within rounding of delta/2.
    """
    raw = roots_grid(p)
    N, n = raw.shape
    steps, motion, crossed = _nearest_steps(raw)
    tracked = _compose_branches(raw, steps)

    coefs = p.coef_matrix()
    disc_sig = discriminant_signal(p, roots=tracked)
    sep = _pairwise_separation(tracked)
    # step guard (vacuous below degree 2): motion vs separation, crossings, |D| floor
    scale = (1.0 + np.max(np.abs(coefs))) ** (n * (n - 1))
    bad = np.zeros(N, dtype=bool)
    bad[:N - 1] = crossed | (motion.max(axis=1) >= 0.5 * sep[:N - 1])
    bad |= np.abs(disc_sig.values[:, 0]) < COLLISION_ABS_D * scale
    if bad.any():
        ts = p.times()
        first = int(np.argmax(bad))
        # the grid point after the run of bad points from first, or the last one
        end = min(first + int(np.argmin(np.append(bad[first:], False))), N - 1)
        raise BranchCollisionError(
            f"branch collision near t in [{ts[first]:.6g}, {ts[end]:.6g}]",
            interval=(float(ts[first]), float(ts[end])),
        )

    res = np.abs(_kernels.horner(coefs, tracked)[0])
    g = p.grid
    branches = [
        SampledSignal(t0=g.t0, dt=g.dt, values=tracked[:, i].astype(np.complex128),
                      label=f"branch{i}:{p.label}")
        for i in range(n)
    ]
    return RootBranches(
        branches=branches,
        residual_max=float(np.max(res)),
        discriminant=disc_sig,
        separation=sep,
    )


def root_bound_check(rb: RootBranches, p: PolyPath):
    """|root(t)| <= 1 + max_i |a_i(t)| pointwise; returns (flag, max_excess)."""
    mags = np.abs(rb.branch_matrix())
    bound = 1.0 + np.max(np.abs(p.coef_matrix()), axis=1)
    excess = float(np.max(mags - bound[:, None]))
    return excess <= 0.0, excess


def separation_certificate(rb: RootBranches, alpha_claim: float):
    """Verify min pairwise branch separation >= alpha_claim, read from the
    per-point separation that `track_branches` recorded.

    Returns (flag, argmin time, separation_min, inf |D|) so the discriminant
    hypothesis |D(t)| >= alpha can be checked alongside. Below degree 2
    there is no pair: the flag holds vacuously and the argmin time and
    separation_min are None.
    """
    inf_d = float(np.min(np.abs(rb.discriminant.values[:, 0])))
    if rb.degree < 2:
        return True, None, None, inf_d
    k = int(np.argmin(rb.separation))
    sep = float(rb.separation[k])
    return sep >= alpha_claim, float(rb.discriminant.times()[k]), sep, inf_d


def classify_branches(rb: RootBranches, th, classify_dt: float = None):
    """Recurrence classification of every branch signal.

    Tracking grids are often much finer than classification needs (the step
    guard wants small dt near close roots); classify_dt resamples branches
    first when provided.
    """
    from .recurrence import classify

    branches = rb.branches
    if classify_dt is not None and classify_dt > branches[0].dt:
        branches = [b.resample(classify_dt) for b in branches]
    return [classify(b, th) for b in branches]


def roots_report(p: PolyPath, alpha_claim: float = 0.0, th=None, classify_dt: float = None):
    """The roots certificate of p: (report dict, RootBranches or None).

    Tracks the branches; on a collision the report holds only the degree
    and the collision interval, and no branches are returned. Otherwise it
    adds the residual, the least separation, the root bound, the verdict
    ``separation_ok`` against alpha_claim (only for a claim above 0, which
    is the only kind that can fail), max |root|, and, when thresholds th
    are given, the recurrence flags of every branch (resampled to
    classify_dt).
    """
    report = {"degree": p.degree, "collisions": []}
    try:
        rb = track_branches(p)
    except BranchCollisionError as exc:
        report["collisions"].append(list(exc.interval))
        return report, None
    ok_bound, excess = root_bound_check(rb, p)
    ok_sep, argmin_t, sep_min, inf_d = separation_certificate(rb, alpha_claim)
    report.update({
        "residual_max": rb.residual_max,
        "separation_min": sep_min,
        "separation_argmin_t": argmin_t,
        "inf_abs_D": inf_d,
        "root_bound_ok": bool(ok_bound),
        "root_bound_excess": excess,
    })
    if alpha_claim > 0:
        report["separation_ok"] = bool(ok_sep)
    report["max_abs_root"] = float(np.max(np.abs(rb.branch_matrix())))
    if th is not None:
        report["branches"] = [r.flags for r in classify_branches(rb, th, classify_dt)]
    return report, rb


def zhikov_pipeline(f_candidate: SampledSignal, with_decay: bool, th,
                    dd_threshold: float = 0.05, classify_dt: float = 0.02):
    """Near-vanishing-discriminant experiment: x^2 - p(t) = 0, p = f (+ e^-t).

    The quadratic goes through `roots_report`. In front of its keys the
    report puts the facts about the input, which hold on a collision too:
    inf |p| (the discriminant-separation failure witness) and whether the
    separated-discriminant hypothesis holds at dd_threshold. It never
    claims more than the surrogate shows.
    """
    g = f_candidate
    pvals = g.values[:, 0].astype(np.complex128)
    if with_decay:
        pvals = pvals + np.exp(-g.times())
    zero = SampledSignal(t0=g.t0, dt=g.dt, values=np.zeros(len(g), dtype=complex), label="a1")
    a2 = SampledSignal(t0=g.t0, dt=g.dt, values=-pvals, label="a2")
    inf_p = float(np.min(np.abs(pvals)))
    report = {
        "with_decay": bool(with_decay),
        "inf_abs_p": inf_p,
        # for x^2 - p the product form gives |D| = 4|p|
        "dd_separation_holds": bool(4.0 * inf_p > dd_threshold),
    }
    roots, rb = roots_report(PolyPath((zero, a2), label="zhikov"), th=th,
                             classify_dt=classify_dt)
    return {**report, **roots}, rb
