"""Translation sets, relative-density witnesses and the recurrence classifier.

The stack certifies, at a declared window and epsilon grid, whether a
sampled trajectory is almost periodic (AP), asymptotically almost periodic
(AAP), remotely almost periodic (RAP), remotely tau-periodic or remotely
stationary, and samples omega-limit hulls for equi-almost-periodicity and
minimality checks. All verdicts are finite-horizon certificates: the
window, candidate grid and gap rule behind every flag are reported, never
silently asserted.
"""

import csv as _csv
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import _kernels
from .errors import (
    DimMismatchError,
    DomainTooShortError,
    WindowTooShortError,
)
from .signal import SampledSignal, Window, leader_clusters, shift_offset, shift_values, \
    sup_distance, translate


# ---------------------------------------------------------------------------
# threshold plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauSpec:
    """Candidate-translation scan: the uniform grid lo, lo + step, ... <= hi.

    ``step`` is also the dedup and tail-length unit. With ``refine`` a
    near-miss (sup within 2x epsilon) gets a three-stage local scan in tau,
    because periods rarely align with grids.
    """

    lo: float
    hi: float
    step: float
    refine: bool = True

    def candidates(self):
        n = SampledSignal.grid_len(self.lo, self.hi, self.step)
        return self.lo + self.step * np.arange(n)

    def clipped(self, hi):
        return TauSpec(self.lo, min(self.hi, hi), self.step, self.refine)


#: a translation set is relatively dense when its largest gap is at most this
#: many times its mean accepted spacing (:meth:`TranslationSet.relatively_dense`)
GAP_BOUND_FACTOR = 3.0
#: the dense tau grid of the remote-stationarity proxy (:func:`classify`)
STATIONARY_TAUS = tuple(np.round(np.arange(0.5, 5.01, 0.5), 10))
#: the Lagrange-stability proxy's bounds on max |s| and on max |s'| by one-step
#: differences (:func:`lagrange_stable_proxy`)
RANGE_BOUND = 1e6
EQUICONTINUITY_BOUND = 50.0


@dataclass(frozen=True)
class Thresholds:
    """Knobs shared by the classifier stack; epsilon_grid sorted ascending.

    ``to_dict`` also records the fixed classifier constants GAP_BOUND_FACTOR,
    STATIONARY_TAUS, RANGE_BOUND and EQUICONTINUITY_BOUND.
    """

    epsilon_grid: tuple
    tau_candidates: TauSpec

    def __post_init__(self):
        eg = tuple(float(e) for e in self.epsilon_grid)
        if not eg or any(e <= 0 for e in eg) or list(eg) != sorted(eg):
            raise ValueError("epsilon_grid must be positive and ascending")
        object.__setattr__(self, "epsilon_grid", eg)

    def to_dict(self):
        return {
            "epsilon_grid": list(self.epsilon_grid),
            "tau_candidates": {
                "lo": self.tau_candidates.lo,
                "hi": self.tau_candidates.hi,
                "step": self.tau_candidates.step,
                "refine": self.tau_candidates.refine,
            },
            "gap_bound_factor": GAP_BOUND_FACTOR,
            "stationary_taus": list(STATIONARY_TAUS),
            "range_bound": RANGE_BOUND,
            "equicontinuity_bound": EQUICONTINUITY_BOUND,
        }


# ---------------------------------------------------------------------------
# translation sets
# ---------------------------------------------------------------------------

@dataclass
class TranslationEntry:
    tau: float
    accepted: bool
    L: float
    tail_sup: float
    refined: bool = False


@dataclass
class TranslationSet:
    """Accepted translations for one (signal, epsilon) pair.

    ``max_gap`` is the relative-density witness: the largest gap between
    consecutive accepted tau (dedup'd within half a candidate step),
    including the boundary gaps of the scanned range [0, hi].
    """

    epsilon: float
    entries: list
    scan_range: Window
    step: float
    max_gap: float = field(init=False)

    def __post_init__(self):
        self.entries.sort(key=lambda e: e.tau)
        self.max_gap = self._compute_max_gap()

    def accepted_taus(self):
        return np.array([e.tau for e in self.entries if e.accepted])

    def representatives(self):
        """Accepted taus dedup'd: clusters closer than step/2 keep the smallest."""
        acc = self.accepted_taus()
        if len(acc) == 0:
            return acc
        reps = [acc[0]]
        for t in acc[1:]:
            if t - reps[-1] >= self.step / 2:
                reps.append(t)
        return np.array(reps)

    def _compute_max_gap(self):
        reps = self.representatives()
        if len(reps) == 0:
            return self.scan_range.length
        gaps = [reps[0] - self.scan_range.a, self.scan_range.b - reps[-1]]
        gaps.extend(np.diff(reps))
        return float(max(gaps))

    def relatively_dense(self):
        """Finite-horizon relative-density certificate.

        max_gap must not exceed GAP_BOUND_FACTOR times the typical accepted
        spacing: the mean of dedup'd consecutive gaps (the candidate step
        when only one representative survives). Three-distance acceptance
        patterns make the minimum gap an unusable reference, so the mean
        stands in for "densest" spacing.
        """
        reps = self.representatives()
        if len(reps) == 0:
            return False
        if len(reps) == 1:
            ref = self.step
        else:
            ref = float(np.mean(np.diff(reps)))
        return self.max_gap <= GAP_BOUND_FACTOR * ref

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["tau", "accepted", "L", "tail_sup"])
            for e in self.entries:
                w.writerow([f"{e.tau:.12g}", int(e.accepted), f"{e.L:.12g}", f"{e.tail_sup:.12g}"])


def _flat(s: SampledSignal):
    if s.dim != 1:
        raise DimMismatchError("translation scans require scalar signals (dim 1)")
    return s.values[:, 0]


def _candidates(cands: TauSpec, span: float, error):
    """The candidate grid; ``error`` when it is empty or span < 4 x its largest tau."""
    taus = cands.candidates()
    if len(taus) == 0:
        raise error("no candidate translations")
    if span < 4 * np.max(taus):
        raise error(f"span {span} < 4 x largest candidate {np.max(taus)}")
    return taus


def _scan(taus, cands: TauSpec, eps: float, value, entry) -> TranslationSet:
    """The scan-and-refine loop behind every translation set.

    ``value(tau, bar)`` is the candidate's eps-free sup, which passes iff
    < eps. It may return a smaller value instead of a sup that reaches
    ``bar`` or its own cap past the near-miss band (2.2 eps for joint
    sets), as long as that value reaches them too: so every accept and
    refine decision reads the exact sup. Grid candidates pass bar = inf.
    ``entry(tau, v, refined)`` builds its TranslationEntry. With
    ``cands.refine`` a near miss, eps <= v < 2 eps, is refined by
    :func:`_local_refine`; the refined tau is kept when it passes and is
    positive.
    """
    entries = []
    for tau in taus:
        v = value(tau, np.inf)
        entries.append(entry(tau, v, False))
        if cands.refine and eps <= v < 2 * eps:
            t_best, v_best = _local_refine(value, tau, cands.step, eps)
            if v_best < eps and t_best > 0:
                entries.append(entry(t_best, v_best, True))
    return TranslationSet(eps, entries, Window(0.0, float(np.max(taus))), cands.step)


#: refinement stages, and grid points per stage, of :func:`_local_refine`
_REFINE_STAGES, _REFINE_POINTS = 3, 13


def _local_refine(objective, tau0, step, eps):
    """Deterministic shrinking-grid minimization around a near-miss tau.

    ``objective(tau, bar)`` gets as bar the least value its stage has
    returned so far (inf for the stage's first point), and may stop at it:
    a value at or above the running minimum can neither be the stage's
    first argmin nor displace it. The next stage centres on that argmin,
    so the bar restarts at inf with every stage. Each stage's argmin and
    its value are those of the exact objective while they stay below the
    objective's own cap, which holds because every grid holds its centre
    (to within rounding), whose value is below 2 eps.
    """
    center = tau0
    half = step / 2
    best_t, best_v = tau0, np.inf
    for _ in range(_REFINE_STAGES):
        grid = center + np.linspace(-half, half, _REFINE_POINTS)
        grid = grid[grid > 0]
        vals, bar = [], np.inf
        for x in grid:
            vals.append(objective(x, bar))
            bar = min(bar, vals[-1])
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v, best_t = vals[i], grid[i]
        center = grid[i]
        half = half / (_REFINE_POINTS // 2)
        if best_v < eps * 0.5:
            break
    return best_t, best_v


#: grid stride of the probe that every joint sup takes before its exact sup
_PROBE_STRIDE = 64


def _strided_shift(v, dt, tau, stride):
    """Samples of ``shift_values(v, dt, tau)`` at indices 0, stride, 2 stride, ...,
    with the same bits: the same blend of the same neighbours, taken from strided
    views."""
    k, fr, m = shift_offset(len(v), dt, tau)
    if fr == 0:
        return v[k:k + m:stride]
    return (1.0 - fr) * v[k:k + m:stride] + fr * v[k + 1:k + 1 + m:stride]


def _joint_sup(flats, dt, tau, cap):
    """Worst sup |v(t+tau) - v(t)| over the flat arrays ``flats``, where
    v(t+tau) is sampled (inf when fewer than two such points exist), exact
    when below ``cap``. It first compares every _PROBE_STRIDE-th shifted
    sample of every array and returns the probe's max as soon as that
    reaches ``cap``; then it stops at the first array whose sup reaches
    ``cap`` and returns that sup. A result >= cap is attained at some grid
    point of some array and is at most the worst sup."""
    for v in flats:
        sh = _strided_shift(v, dt, tau, _PROBE_STRIDE)
        val = _kernels.sup_diff(sh, v[:len(sh) * _PROBE_STRIDE:_PROBE_STRIDE])
        if val >= cap:
            return val
    worst = 0.0
    for v in flats:
        sh = shift_values(v, dt, tau)
        if len(sh) < 2:
            return np.inf
        val = _kernels.sup_diff_capped(sh, v[:len(sh)], cap)
        if val > worst:
            worst = val
            if worst >= cap:
                return worst
    return worst


def _joint_set(flats, dt, t0, span, eps, cands: TauSpec) -> TranslationSet:
    """Common Bohr translation set of the flat sample arrays ``flats``.

    tau is accepted iff every array v has sup |v(t+tau) - v(t)| < eps where
    v(t+tau) is sampled; the entry records L = t0 and a tail_sup. Every
    candidate and refinement point takes :func:`_joint_sup` with cap
    min(2.2 eps, bar), where bar is refinement's running minimum (inf on
    the grid): 2.2 eps lies past the near-miss band. So tail_sup is the
    exact worst sup when that is below 2.2 eps, and otherwise the value
    that stopped the scan: a value in [2.2 eps, worst sup], attained at
    some grid point. ``span`` is the arrays' length in time.
    """
    taus = _candidates(cands, span, WindowTooShortError)
    cap = 2.2 * eps

    def entry(tau, v, refined):
        return TranslationEntry(float(tau), v < eps, t0, float(v), refined)

    return _scan(taus, cands, eps, lambda tau, bar: _joint_sup(flats, dt, tau, min(cap, bar)),
                 entry)


def translation_set_global(s: SampledSignal, eps: float, cands: TauSpec) -> TranslationSet:
    """Bohr-type translation set: tau accepted iff sup |s(t+tau)-s(t)| < eps.

    The sup runs over the domain of s shrunk so both signals are defined,
    and the recorded L is the domain start: the one-member case of
    :func:`_joint_set`. An entry's tail_sup is the exact sup below 2.2 eps;
    past it, the attained value in [2.2 eps, sup] that stopped the scan.
    """
    w = s.domain
    return _joint_set([_flat(s)], s.dt, w.a, w.length, eps, cands)


def _late_sup(base, dt, tau, tail_steps):
    """Sup of d = |s(t+tau) - s(t)| over the final tail_steps + 1 grid points
    where s(t+tau) is sampled (inf when fewer exist); only they are formed."""
    m = shift_offset(len(base), dt, tau)[2]
    if m <= tail_steps:
        return np.inf
    return _kernels.sup_diff(shift_values(base, dt, tau, last=tail_steps + 1),
                             base[m - 1 - tail_steps:m])


def _tail_diff(base, dt, tau):
    """d = |s(t+tau) - s(t)| at every grid point where s(t+tau) is sampled. The
    shifted samples stay an unnamed temporary, so numpy reuses their buffer for
    the difference."""
    return np.abs(shift_values(base, dt, tau) - base[:shift_offset(len(base), dt, tau)[2]])


def _least_start(d, eps):
    """Least index i with max(d[i:]) < eps: one past the last d >= eps, 0 when
    every d is below eps."""
    late = d[::-1] >= eps
    last = int(np.argmax(late))
    return len(d) - last if late[last] else 0


#: accepted tails must also cover this fraction of the signal horizon;
#: a bare step-length tail certifies nothing for frequency-drifting signals
#: because tau-refinement can zero the phase error on any single sub-window
MIN_TAIL_SPAN_FRACTION = 0.02


def _remote_tail_steps(s: SampledSignal, cands: TauSpec):
    min_tail = max(cands.step, MIN_TAIL_SPAN_FRACTION * s.span)
    return max(1, int(np.ceil(min_tail / s.dt)))


def translation_set_remote(s: SampledSignal, eps: float, cands: TauSpec) -> TranslationSet:
    """Remote translation set: tau accepted iff a tail threshold L exists.

    A candidate's sup is the one over its latest admissible tail, at least
    one candidate step and MIN_TAIL_SPAN_FRACTION of the horizon long; near
    misses are refined on it. That sup is exact: it ignores refinement's
    bar. An accepted tau records the least grid L with tail sup < eps and
    that tail's sup, two reads of its difference d (formed for accepted
    taus only): L is one grid step past the last d >= eps, and the sup is
    the max of d from there. A rejected one records the latest tail start
    and sup.
    """
    taus = _candidates(cands, s.span, DomainTooShortError)
    base = _flat(s)
    tail_steps = _remote_tail_steps(s, cands)

    def entry(tau, late, refined):
        if late >= eps:
            m = shift_offset(len(base), s.dt, tau)[2]
            L = s.t0 + max(0, m - 1 - tail_steps) * s.dt
            return TranslationEntry(float(tau), False, float(L), float(late))
        d = _tail_diff(base, s.dt, tau)
        idx = _least_start(d, eps)
        return TranslationEntry(float(tau), True, float(s.t0 + idx * s.dt),
                                float(np.max(d[idx:])), refined)

    return _scan(taus, cands, eps, lambda tau, bar: _late_sup(base, s.dt, tau, tail_steps),
                 entry)


def _least_tails(s: SampledSignal, tau: float, eps_grid, min_tail: float):
    """Least grid L per eps with tail sup < eps (None when no admissible L), from one d."""
    base = _flat(s)
    tail_steps = max(1, int(np.ceil(min_tail / s.dt)))
    if _late_sup(base, s.dt, tau, tail_steps) >= max(eps_grid, default=0.0):
        return [None] * len(eps_grid)
    d = _tail_diff(base, s.dt, tau)
    i_max = len(d) - 1 - tail_steps
    idx = [_least_start(d, eps) for eps in eps_grid]
    return [s.t0 + i * s.dt if i <= i_max else None for i in idx]


def remotely_tau_periodic_test(s: SampledSignal, tau: float, eps_grid):
    """True iff for every eps the translate-by-tau passes the tail test.

    L is the least grid point with sup |s(t+tau)-s(t)| < eps for t >= L,
    one grid step past the last point where the difference reaches eps; it
    must leave a tail of max(tau, 10 dt, MIN_TAIL_SPAN_FRACTION x span).
    One difference array serves the whole eps grid. Returns (flag, {eps: L or None}).
    """
    if s.span < 2 * tau:
        raise DomainTooShortError(f"domain {s.span} too short for tau={tau}")
    min_tail = max(tau, 10 * s.dt, MIN_TAIL_SPAN_FRACTION * s.span)
    Ls = _least_tails(s, tau, eps_grid, min_tail)
    table = {float(eps): L for eps, L in zip(eps_grid, Ls)}
    return all(L is not None for L in Ls), table


def remotely_stationary_test(s: SampledSignal, eps_grid, taus):
    """Remote stationarity proxy: every tau in a dense grid passes every eps."""
    witness = {float(tau): remotely_tau_periodic_test(s, tau, eps_grid)[0] for tau in taus}
    return all(witness.values()), witness


# ---------------------------------------------------------------------------
# omega-limit hull sampling
# ---------------------------------------------------------------------------

@dataclass
class HullSample:
    """Finite family of shifted signals approximating the omega-limit set.

    members are cluster representatives (medoids) restricted to a common
    comparison window.
    """

    members: list
    shifts: np.ndarray
    window: Window

    def max_pairwise(self) -> float:
        """Largest sup distance on the window between two members; 0 for one.

        Real scalar members on one grid take max_t (max_i a_i - min_i a_i),
        bit-equal to the pairwise sups since rounded subtraction is monotone;
        complex, vector or misaligned members take the pairwise sups.
        """
        ms = self.members
        if len({(m.t0, m.dt, len(m), m.dim, m.is_complex()) for m in ms}) == 1 \
                and ms[0].dim == 1 and not ms[0].is_complex():
            i0, i1 = ms[0].window_slice(self.window)
            cols = [m.values[i0:i1 + 1, 0] for m in ms]
            return float(np.max(reduce(np.maximum, cols) - reduce(np.minimum, cols)))
        return max((sup_distance(a, b, self.window) for i, a in enumerate(ms) for b in ms[i + 1:]),
                   default=0.0)


def omega_limit_sample(s: SampledSignal, shift_grid, window_len: float,
                       cluster_tol: float) -> HullSample:
    """Sample translate(s, h) on a fixed leading window and cluster.

    The cluster representative is the medoid (member minimizing the summed
    distance to its cluster), so representatives stay inside the sampled set.
    """
    shifts = np.asarray(sorted(shift_grid), dtype=float)
    if len(shifts) == 0:
        raise ValueError("shift_grid must be non-empty")
    if np.max(shifts) + window_len > s.span + 1e-9:
        raise DomainTooShortError(
            f"shift {np.max(shifts)} + window {window_len} exceeds span {s.span}"
        )
    w = Window(s.t0, s.t0 + window_len)
    members = [translate(s, h).restrict(w) for h in shifts]

    clusters = leader_clusters(members, w, cluster_tol)  # shift order, deterministic

    rep_idx = []
    for cl in clusters:
        sub = cl[:40]  # medoid over a deterministic subsample for big clusters
        dmat = np.zeros((len(sub), len(sub)))
        for a in range(len(sub)):
            for b in range(a + 1, len(sub)):
                dmat[a, b] = dmat[b, a] = sup_distance(members[sub[a]], members[sub[b]], w)
        rep_idx.append(sub[int(np.argmin(dmat.sum(axis=1)))])

    return HullSample([members[i] for i in rep_idx], shifts[rep_idx], w)


def equi_ap_test(hull: HullSample, eps: float, cands: TauSpec):
    """Common translation set of all hull members on their window.

    tau is accepted iff every member satisfies sup |m(t+tau)-m(t)| < eps on
    its shrunk window; the flag certifies relative density of the common
    set. Returns (flag, TranslationSet).
    """
    if not hull.members:
        raise ValueError("hull is empty")
    ts = _joint_set([_flat(m) for m in hull.members], hull.members[0].dt, hull.window.a,
                    hull.window.length, eps, cands)
    return ts.relatively_dense(), ts


def minimality_test(hull: HullSample, eps: float, n_probes: int = 4,
                    slide_span: float = None):
    """One-sided minimality heuristic at resolution eps.

    For probe members m the shifted copies of m must be eps-dense in the
    hull: every member within eps of translate(m, delta) for some delta.
    True is only *consistent with* minimality; False certifies a proper
    closed invariant subset at this resolution (e.g. distinct constants).

    Returns (flag, evidence dict). A probe's ``worst_min_dist`` is the max
    over members of the alignment distance, each capped at eps: below eps
    it is the exact minimum over offsets, otherwise an attained value >= eps
    that certifies the minimum is >= eps.
    """
    n = len(hull.members)
    if n == 0:
        raise ValueError("hull is empty")
    if n == 1:
        return True, {"probes": [], "worst": 0.0}
    dt = hull.members[0].dt
    W = hull.window.length
    if slide_span is None:
        slide_span = 0.7 * W
    cmp_len = W - slide_span
    if cmp_len <= 10 * dt:
        raise WindowTooShortError("slide_span leaves no comparison window")
    n_cmp = int(np.floor(cmp_len / dt)) + 1
    max_off = len(hull.members[0]) - n_cmp

    probe_ids = sorted(set(np.linspace(0, n - 1, min(n_probes, n)).astype(int)))
    offsets = np.arange(0, max_off + 1, dtype=np.int64)

    flag = True
    evidence = {"probes": [], "worst": 0.0}
    for pi in probe_ids:
        src = _flat(hull.members[pi])
        worst_j = 0.0
        for j in range(n):
            if j == pi:
                continue
            tgt = _flat(hull.members[j])[:n_cmp]
            best, _ = _best_alignment(src, tgt, offsets, eps)
            worst_j = max(worst_j, best)
            if best >= eps:
                flag = False
        evidence["probes"].append({"member": int(pi), "worst_min_dist": float(worst_j)})
        evidence["worst"] = max(evidence["worst"], float(worst_j))
    return flag, evidence


def _best_alignment(src, tgt, offsets, cap):
    """min over offsets k of sup_t |src[k+t] - tgt[t]|, exact below cap.

    Returns (value, offset) with the value attained at the offset. If the
    minimum is below cap, the value is that exact minimum (ties go to the
    lowest offset among those evaluated). Otherwise the value is >= cap and
    the true minimum is certified >= cap, as with sup_diff_capped.

    Every offset gets an admissible lower bound of its sup: the FFT
    sliding RMS, raised to the sup over probe columns where the RMS is
    below cap. Only the offsets whose bound is still below cap are sorted
    (stably); exact sups run on them in increasing bound order, in growing
    chunks, until the next bound reaches min(best, cap). When none is left,
    the first offset of least bound alone is evaluated, and its value
    (>= cap) is the attained result.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if len(offsets) == 0:
        return np.inf, -1
    nt = len(tgt)
    bound = _kernels.sliding_rms(src, tgt, int(offsets.max()) + 1)[offsets]
    live = np.flatnonzero(bound < cap)
    if len(live):
        probe = np.arange(0, nt, max(1, nt // 256), dtype=np.int64)
        on_probe = _kernels.min_sliding_probe(src, tgt[probe], offsets[live], probe)
        bound[live] = np.maximum(bound[live], on_probe)
        live = live[bound[live] < cap]
    if len(live):
        order = live[np.argsort(bound[live], kind="stable")]
    else:
        order = np.array([np.argmin(bound)])
    bound = bound[order]
    best, best_k = np.inf, -1
    i, size = 0, 16
    while i < len(order):
        bar = min(best, cap)
        if i and bound[i] >= bar:
            break
        n = max(1, int(np.searchsorted(bound[i:i + size], bar)))
        v, k = _kernels.min_sliding_sup(src, tgt, np.sort(offsets[order[i:i + n]]))
        if v < best or (v == best and k < best_k):
            best, best_k = v, k
        i += n
        size *= 2
    return best, best_k


# ---------------------------------------------------------------------------
# AAP proxy
# ---------------------------------------------------------------------------

def _disjoint_window_aap_residual(s: SampledSignal, eps: float):
    """AAP proxy without an external AP family.

    Compares the final window of s against a slid early-mid window of the
    same length; a genuinely asymptotically almost periodic signal matches
    its own past after transients decay, while slow tail drift (the RAP-only
    regime) leaves a residual. Self-overlap is excluded by construction.

    Returns (residual, matched_at). The alignment is capped at eps: a
    residual below eps is the exact minimum over the slid offsets; a
    residual >= eps is attained at matched_at and certifies that the
    minimum is >= eps.
    """
    v = _flat(s)
    n = len(s)
    W = int(0.3 * n)
    h0 = int(n / 8)
    slack = int(n / 8)
    tail = v[n - W:]
    src = v[h0:h0 + slack + W]
    offsets = np.arange(0, slack + 1, dtype=np.int64)
    res, k = _best_alignment(src, tail, offsets, eps)
    return float(res), float((h0 + k) * s.dt + s.t0)


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------

@dataclass
class RecurrenceReport:
    flags: dict
    evidence: dict
    thresholds: Thresholds
    window: Window
    #: the finest-eps remote TranslationSet behind the rap evidence; not in to_dict
    remote_set: TranslationSet = None

    def to_dict(self):
        # stable key order: flags, evidence, thresholds, window
        return {
            "flags": {
                "ap": self.flags["ap"],
                "aap": self.flags["aap"],
                "rap": self.flags["rap"],
                "remotely_tau_periodic": self.flags["remotely_tau_periodic"],
                "tau": self.flags["tau"],
                "remotely_stationary": self.flags["remotely_stationary"],
                "lagrange_stable_proxy": self.flags["lagrange_stable_proxy"],
            },
            "evidence": self.evidence,
            "thresholds": self.thresholds.to_dict(),
            "window": [self.window.a, self.window.b],
        }


def lagrange_stable_proxy(s: SampledSignal):
    """Bounded range plus a one-step equicontinuity modulus estimate of a
    scalar signal, against RANGE_BOUND and EQUICONTINUITY_BOUND."""
    v = _flat(s)
    max_abs = float(np.max(np.abs(v)))
    modulus = float(np.max(np.abs(np.diff(v))) / s.dt) if len(s) > 1 else 0.0
    ok = max_abs <= RANGE_BOUND and modulus <= EQUICONTINUITY_BOUND
    return ok, {"max_abs": max_abs, "equicontinuity_modulus": modulus}


def classify(s: SampledSignal, th: Thresholds) -> RecurrenceReport:
    """Run the full recurrence stack on one signal.

    Flag logic is monotone by construction: ap implies aap implies rap, and
    remote tau-periodicity or stationarity implies rap. Every flag's
    numeric evidence (translation sets, gap witnesses, residuals) is kept
    in the report.
    """
    cands = th.tau_candidates.clipped(s.span / 4)
    if len(cands.candidates()) == 0:
        raise DomainTooShortError("domain too short for any candidate translation")
    w = s.domain
    evidence = {"ap": {}, "rap": {}, "aap": {}, "remote_tau": {}, "stationary": {}, "lagrange": {}}

    # global and remote density evidence; finest holds each scan's finest-eps set
    dense, finest = {}, {}
    for key, scan in (("ap", translation_set_global), ("rap", translation_set_remote)):
        dense[key] = True
        for eps in th.epsilon_grid:
            ts = scan(s, eps, cands)
            ok = ts.relatively_dense()
            evidence[key][f"{eps:g}"] = {
                "n_accepted": int(len(ts.accepted_taus())),
                "max_gap": ts.max_gap,
                "dense": bool(ok),
            }
            dense[key] = dense[key] and ok
            finest.setdefault(key, ts)
    ap_flag, rap_scan = dense["ap"], dense["rap"]

    # remote tau-periodicity: try the smallest accepted remote translations
    rtp_flag, rtp_tau = False, None
    for tau in list(finest["rap"].representatives()[:8]):
        ok, table = remotely_tau_periodic_test(s, float(tau), th.epsilon_grid)
        if ok:
            rtp_flag, rtp_tau = True, float(tau)
            evidence["remote_tau"] = {"tau": rtp_tau, "L_table": dict(table)}
            break
    stat_flag, stat_witness = remotely_stationary_test(s, th.epsilon_grid, STATIONARY_TAUS)
    evidence["stationary"] = {"all_taus_pass": bool(stat_flag), "n_taus": len(STATIONARY_TAUS)}
    if stat_flag and not rtp_flag:
        rtp_flag, rtp_tau = True, float(STATIONARY_TAUS[0])

    aap_eps = th.epsilon_grid[0]
    residual, match_at = _disjoint_window_aap_residual(s, aap_eps)
    evidence["aap"] = {"residual": residual, "matched_at": match_at,
                       "threshold": aap_eps}
    aap_flag = residual < aap_eps

    lag_flag, lag_ev = lagrange_stable_proxy(s)
    evidence["lagrange"] = lag_ev

    # monotone closure of the flag lattice
    aap_flag = aap_flag or ap_flag
    rap_flag = rap_scan or rtp_flag or stat_flag or aap_flag

    flags = {
        "ap": bool(ap_flag),
        "aap": bool(aap_flag),
        "rap": bool(rap_flag),
        "remotely_tau_periodic": bool(rtp_flag),
        "tau": rtp_tau,
        "remotely_stationary": bool(stat_flag),
        "lagrange_stable_proxy": bool(lag_flag),
    }
    return RecurrenceReport(flags, evidence, th, w, finest["rap"])
