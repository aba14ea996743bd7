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

import numpy as np

from . import _kernels
from .errors import (
    DimMismatchError,
    DomainTooShortError,
    HullNotAPError,
    WindowTooShortError,
)
from .signal import SampledSignal, Window, leader_clusters, shift_offset, shift_values, \
    sup_distance, translate


# ---------------------------------------------------------------------------
# threshold plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauSpec:
    """Candidate-translation scan: uniform grid plus optional refinement.

    ``explicit`` overrides the (lo, hi, step) grid; ``step`` is still used
    as the dedup/tail-length unit. Refinement runs a three-stage local scan
    around near-misses (sup within 2x epsilon), because periods rarely
    align with grids.
    """

    lo: float
    hi: float
    step: float
    refine: bool = True
    explicit: tuple = None

    def candidates(self):
        if self.explicit is not None:
            return np.asarray(self.explicit, dtype=float)
        n = int(np.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
        return self.lo + self.step * np.arange(n)

    def clipped(self, hi):
        hi = min(self.hi, hi)
        if self.explicit is not None:
            keep = tuple(t for t in self.explicit if t <= hi + 1e-12)
            return TauSpec(self.lo, hi, self.step, self.refine, keep)
        return TauSpec(self.lo, hi, self.step, self.refine)


@dataclass(frozen=True)
class Thresholds:
    """Knobs shared by the classifier stack; epsilon_grid sorted ascending."""

    epsilon_grid: tuple
    tau_candidates: TauSpec
    cluster_tol: float = 0.05
    tail_fraction: float = 0.5
    gap_bound_factor: float = 3.0
    stationary_taus: tuple = tuple(np.round(np.arange(0.5, 5.01, 0.5), 10))
    range_bound: float = 1e6
    equicontinuity_bound: float = 50.0

    def __post_init__(self):
        eg = tuple(float(e) for e in self.epsilon_grid)
        if not eg or any(e <= 0 for e in eg) or list(eg) != sorted(eg):
            raise ValueError("epsilon_grid must be positive and ascending")
        object.__setattr__(self, "epsilon_grid", eg)

    @staticmethod
    def default(span):
        return Thresholds(
            epsilon_grid=(0.05, 0.1, 0.2),
            tau_candidates=TauSpec(lo=np.pi / 2, hi=min(span / 4, 400.0), step=np.pi / 2),
        )

    def to_dict(self):
        return {
            "epsilon_grid": list(self.epsilon_grid),
            "tau_candidates": {
                "lo": self.tau_candidates.lo,
                "hi": self.tau_candidates.hi,
                "step": self.tau_candidates.step,
                "refine": self.tau_candidates.refine,
                "explicit": list(self.tau_candidates.explicit) if self.tau_candidates.explicit else None,
            },
            "cluster_tol": self.cluster_tol,
            "tail_fraction": self.tail_fraction,
            "gap_bound_factor": self.gap_bound_factor,
            "stationary_taus": list(self.stationary_taus),
            "range_bound": self.range_bound,
            "equicontinuity_bound": self.equicontinuity_bound,
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

    def relatively_dense(self, gap_bound_factor=3.0):
        """Finite-horizon relative-density certificate.

        max_gap must not exceed gap_bound_factor times the typical accepted
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
        return self.max_gap <= gap_bound_factor * ref

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


def translation_set_global(s: SampledSignal, eps: float, w: Window, cands: TauSpec) -> TranslationSet:
    """Bohr-type translation set: tau accepted iff sup |s(t+tau)-s(t)| < eps on w.

    The comparison window is w shrunk so both signals are defined; the
    recorded L is that window's start.
    """
    taus = cands.candidates()
    if len(taus) == 0:
        raise WindowTooShortError("no candidate translations")
    if w.length < 4 * np.max(taus):
        raise WindowTooShortError(
            f"window length {w.length} < 4 x largest candidate {np.max(taus)}"
        )
    base = _flat(s)
    i_a, i_b = s.window_slice(w)

    def sup_at(tau, cap):
        sh = shift_values(base, s.dt, tau)
        j_b = min(i_b, len(sh) - 1)
        if j_b <= i_a:
            return np.inf
        return _kernels.sup_diff_capped(sh[i_a:j_b + 1], base[i_a:j_b + 1], cap)

    entries = []
    for tau in taus:
        v = sup_at(tau, 2.2 * eps)
        entries.append(TranslationEntry(float(tau), v < eps, w.a, float(v)))
        if cands.refine and eps <= v < 2 * eps:
            t_best, v_best = _local_refine(lambda x: sup_at(x, 2.2 * eps), tau, cands.step, eps)
            if v_best < eps and t_best > 0:
                entries.append(TranslationEntry(float(t_best), True, w.a, float(v_best), refined=True))
    return TranslationSet(eps, entries, Window(0.0, float(np.max(taus))), cands.step)


def _local_refine(objective, tau0, step, eps, stages=3, pts=13):
    """Deterministic shrinking-grid minimization around a near-miss tau."""
    center = tau0
    half = step / 2
    best_t, best_v = tau0, np.inf
    for _ in range(stages):
        grid = center + np.linspace(-half, half, pts)
        grid = grid[grid > 0]
        vals = [objective(x) for x in grid]
        i = int(np.argmin(vals))
        if vals[i] < best_v:
            best_v, best_t = vals[i], grid[i]
        center = grid[i]
        half = half / (pts // 2)
        if best_v < eps * 0.5:
            break
    return best_t, best_v


def _tail_profile(base, dt, tau, tail_steps, eps):
    """(i_max, late, prof) for d = |s(t+tau) - s(t)| where s(t+tau) is sampled.

    late is the sup of d over the final tail_steps + 1 grid points, which
    start at index i_max ((0, inf, None) when fewer exist); only that window
    is formed unless late < eps. Then prof[i] is the sup of d from index i
    on, the reversed cumulative max: it is nonincreasing, so the least tail
    start with sup < eps' is count_nonzero(prof >= eps'). Otherwise prof is
    None.
    """
    m = shift_offset(len(base), dt, tau)[2]
    if m <= tail_steps:
        return 0, np.inf, None
    i_max = m - 1 - tail_steps
    late = _kernels.sup_diff(shift_values(base, dt, tau, last=tail_steps + 1), base[i_max:m])
    if late >= eps:
        return i_max, late, None
    d = np.abs(shift_values(base, dt, tau) - base[:m])
    return i_max, late, np.maximum.accumulate(d[::-1])[::-1]


#: accepted tails must also cover this fraction of the signal horizon;
#: a bare step-length tail certifies nothing for frequency-drifting signals
#: because tau-refinement can zero the phase error on any single sub-window
MIN_TAIL_SPAN_FRACTION = 0.02


def _remote_tail_steps(s: SampledSignal, cands: TauSpec):
    min_tail = max(cands.step, MIN_TAIL_SPAN_FRACTION * s.span)
    return max(1, int(np.ceil(min_tail / s.dt)))


def translation_set_remote(s: SampledSignal, eps: float, cands: TauSpec) -> TranslationSet:
    """Remote translation set: tau accepted iff a tail threshold L exists.

    For each tau the least grid L with tail sup < eps is read off the tail
    profile; acceptance requires a residual tail of at least one candidate
    step and MIN_TAIL_SPAN_FRACTION of the horizon. The profile is built
    only when that latest admissible tail passes, so rejections read the
    late window alone. Near-misses (late sup within 2x eps) are refined in
    tau on the late window before rejection.
    """
    taus = cands.candidates()
    if len(taus) == 0:
        raise DomainTooShortError("no candidate translations")
    if s.span < 4 * np.max(taus):
        raise DomainTooShortError(
            f"domain length {s.span} < 4 x largest candidate {np.max(taus)}"
        )
    base = _flat(s)
    tail_steps = _remote_tail_steps(s, cands)

    def late_sup(tau):  # eps = 0 forms the late window alone
        return _tail_profile(base, s.dt, tau, tail_steps, 0.0)[1]

    def entry(tau, refined=False):
        i_max, late, prof = _tail_profile(base, s.dt, tau, tail_steps, eps)
        if prof is None:
            return TranslationEntry(float(tau), False, float(s.t0 + i_max * s.dt), float(late))
        idx = int(np.count_nonzero(prof >= eps))
        return TranslationEntry(float(tau), True, float(s.t0 + idx * s.dt), float(prof[idx]),
                                refined)

    entries = []
    for tau in taus:
        e = entry(tau)
        entries.append(e)
        if not e.accepted and cands.refine and e.tail_sup < 2 * eps:
            t_best, v_best = _local_refine(late_sup, tau, cands.step, eps)
            if v_best < eps and t_best > 0:  # v_best is t_best's late sup: accepted
                entries.append(entry(t_best, refined=True))
    return TranslationSet(eps, entries, Window(0.0, float(np.max(taus))), cands.step)


def _least_tails(s: SampledSignal, tau: float, eps_grid, min_tail: float):
    """Least grid L per eps with tail sup < eps (None when no admissible L), from one profile."""
    base = _flat(s)
    tail_steps = max(1, int(np.ceil(min_tail / s.dt)))
    i_max, _, prof = _tail_profile(base, s.dt, tau, tail_steps, max(eps_grid, default=0.0))
    if prof is None:
        return [None] * len(eps_grid)
    idx = [int(np.count_nonzero(prof >= eps)) for eps in eps_grid]
    return [s.t0 + i * s.dt if i <= i_max else None for i in idx]


def least_tail_threshold(s: SampledSignal, tau: float, eps: float, min_tail: float):
    """Least grid L with tail sup |s(t+tau)-s(t)| < eps for t >= L, or None.

    L must leave a tail of min_tail; it is read off the tail profile.
    """
    return _least_tails(s, tau, (eps,), min_tail)[0]


def remotely_tau_periodic_test(s: SampledSignal, tau: float, eps_grid, min_tail=None):
    """True iff for every eps the translate-by-tau passes the tail test.

    One tail profile serves the whole eps grid. Returns (flag, {eps: L or None}).
    """
    if s.span < 2 * tau:
        raise DomainTooShortError(f"domain {s.span} too short for tau={tau}")
    if min_tail is None:
        min_tail = max(tau, 10 * s.dt, MIN_TAIL_SPAN_FRACTION * s.span)
    Ls = _least_tails(s, tau, eps_grid, min_tail)
    table = {float(eps): L for eps, L in zip(eps_grid, Ls)}
    return all(L is not None for L in Ls), table


def remotely_stationary_test(s: SampledSignal, eps_grid, taus, min_tail=None):
    """Remote stationarity proxy: every tau in a dense grid passes every eps."""
    flag = True
    witness = {}
    for tau in taus:
        ok, table = remotely_tau_periodic_test(s, tau, eps_grid, min_tail=min_tail)
        witness[float(tau)] = ok
        flag = flag and ok
    return flag, witness


def thap4_equivalence_check(s: SampledSignal, eps: float, cands: TauSpec) -> bool:
    """Accepted sets under the plain tail rule vs the t, t+tau >= L variant.

    For nonnegative tau the two Bohr-type tail conditions coincide; both
    are read from one tail profile per tau and compared. Two-sided signals
    are out of scope: only tau >= 0 is scanned.
    """
    base = _flat(s)
    tail_steps = _remote_tail_steps(s, cands)
    set_a, set_b = [], []
    for tau in cands.candidates():
        prof = _tail_profile(base, s.dt, tau, tail_steps, eps)[2]
        plain = both = prof is not None
        if plain:
            idx = int(np.count_nonzero(prof >= eps))
            # require t >= L and t + tau >= L for the found L; tau >= 0 makes
            # the second constraint redundant but it is enforced literally
            i_start = max(idx, int(np.ceil((idx * s.dt - tau) / s.dt)))
            both = bool(prof[i_start] < eps)
        set_a.append(plain)
        set_b.append(both)
    return set_a == set_b


# ---------------------------------------------------------------------------
# omega-limit hull sampling
# ---------------------------------------------------------------------------

@dataclass
class HullSample:
    """Finite family of shifted signals approximating the omega-limit set.

    members are cluster representatives (medoids) restricted to a common
    comparison window; dist is their pairwise sup-distance matrix there.
    """

    members: list
    shifts: np.ndarray
    dist: np.ndarray
    window: Window
    cluster_tol: float
    cluster_sizes: list


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
        if len(cl) == 1:
            rep_idx.append(cl[0])
            continue
        sub = cl[:40]  # medoid over a deterministic subsample for big clusters
        dmat = np.zeros((len(sub), len(sub)))
        for a in range(len(sub)):
            for b in range(a + 1, len(sub)):
                dmat[a, b] = dmat[b, a] = sup_distance(members[sub[a]], members[sub[b]], w)
        rep_idx.append(sub[int(np.argmin(dmat.sum(axis=1)))])

    reps = [members[i] for i in rep_idx]
    rep_shifts = shifts[rep_idx]
    n = len(reps)
    dist = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            dist[a, b] = dist[b, a] = sup_distance(reps[a], reps[b], w)
    return HullSample(reps, rep_shifts, dist, w, cluster_tol,
                      [len(c) for c in clusters])


def equi_ap_test(hull: HullSample, eps: float, cands: TauSpec,
                 gap_bound_factor: float = 3.0):
    """Common translation set of all hull members on their window.

    tau is accepted iff every member satisfies sup |m(t+tau)-m(t)| < eps on
    its shrunk window; the flag certifies relative density of the common
    set. Returns (flag, TranslationSet).
    """
    if not hull.members:
        raise ValueError("hull is empty")
    taus = cands.candidates()
    W = hull.window.length
    if W < 4 * np.max(taus):
        raise WindowTooShortError(f"member window {W} < 4 x largest tau {np.max(taus)}")
    flats = [_flat(m) for m in hull.members]
    dt = hull.members[0].dt

    def joint_sup(tau, cap):
        worst = 0.0
        for v in flats:
            sh = shift_values(v, dt, tau)
            m = len(sh)
            if m < 2:
                return np.inf
            val = _kernels.sup_diff_capped(sh, v[:m], cap)
            if val > worst:
                worst = val
                if worst >= cap:
                    return worst
        return worst

    entries = []
    for tau in taus:
        v = joint_sup(tau, 2.2 * eps)
        entries.append(TranslationEntry(float(tau), v < eps, hull.window.a, float(v)))
        if cands.refine and eps <= v < 2 * eps:
            t_best, v_best = _local_refine(lambda x: joint_sup(x, 2.2 * eps), tau, cands.step, eps)
            if v_best < eps and t_best > 0:
                entries.append(TranslationEntry(float(t_best), True, hull.window.a, float(v_best), refined=True))
    ts = TranslationSet(eps, entries, Window(0.0, float(np.max(taus))), cands.step)
    return ts.relatively_dense(gap_bound_factor), ts


def minimality_test(hull: HullSample, eps: float, n_probes: int = 4,
                    slide_span: float = None):
    """One-sided minimality heuristic at resolution eps.

    For probe members m the shifted copies of m must be eps-dense in the
    hull: every member within eps of translate(m, delta) for some delta.
    True is only *consistent with* minimality; False certifies a proper
    closed invariant subset at this resolution (e.g. distinct constants).

    Returns (flag, evidence dict).
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
            best, _ = _best_alignment(src, tgt, offsets)
            worst_j = max(worst_j, best)
            if best >= eps:
                flag = False
        evidence["probes"].append({"member": int(pi), "worst_min_dist": float(worst_j)})
        evidence["worst"] = max(evidence["worst"], float(worst_j))
    return flag, evidence


def _best_alignment(src, tgt, offsets, n_probe=768):
    """min over offsets k of sup_t |src[k+t] - tgt[t]|, two-stage.

    A subsampled probe pass (a lower bound per offset) locates the basin;
    the exact sup is then minimized over that neighbourhood at unit offset
    stride. Returns (value, offset); the value is an upper bound of the
    true minimum attained at the returned offset.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if len(offsets) == 0:
        return np.inf, -1
    nt = len(tgt)
    if len(offsets) * nt <= 2_000_000 or nt <= 2 * n_probe:
        return _kernels.min_sliding_sup(src, tgt, offsets, 0.0)
    stride = max(1, nt // n_probe)
    probe = np.arange(0, nt, stride, dtype=np.int64)
    _, k0 = _kernels.min_sliding_probe(src, np.ascontiguousarray(tgt[probe]), offsets, probe)
    step = int(offsets[1] - offsets[0]) if len(offsets) > 1 else 1
    radius = max(2 * step, 64)
    lo = max(int(offsets[0]), k0 - radius)
    hi = min(int(offsets[-1]), k0 + radius)
    fine = np.arange(lo, hi + 1, dtype=np.int64)
    return _kernels.min_sliding_sup(src, tgt, fine, 0.0)


# ---------------------------------------------------------------------------
# AAP tests
# ---------------------------------------------------------------------------

def aap_test(s: SampledSignal, hull: HullSample, eps: float,
             ap_cands: TauSpec = None, tail_fraction: float = 0.5,
             align_slack: float = None):
    """Asymptotic almost periodicity against a caller-built AP family.

    Every hull member must itself pass the AP test at eps (HullNotAP
    otherwise). The residual is the best tail sup distance between s and a
    member slid over the final tail_fraction window; this realizes the
    decomposition s = p + r with r judged on the tail.

    Returns (flag, residual, {"member": i, "delta": d}).
    """
    if not hull.members:
        raise ValueError("hull is empty")
    W = hull.window.length
    # the AP precheck runs on a capped window: it guards against blatantly
    # non-AP members, the caller vouches for the family itself
    chk_span = min(W, 400.0)
    if ap_cands is None:
        ap_cands = TauSpec(lo=np.pi / 2, hi=chk_span / 4, step=np.pi / 2, refine=True)
    for i, m in enumerate(hull.members):
        mc = m.restrict(Window(m.t0, m.t0 + chk_span)) if m.span > chk_span else m
        ts = translation_set_global(mc, eps, mc.domain, ap_cands.clipped(mc.span / 4))
        if not ts.relatively_dense():
            raise HullNotAPError(f"hull member {i} fails the AP test at eps={eps}")

    dt = s.dt
    if align_slack is None:
        align_slack = min(0.2 * W, 40.0)
    n_slack = int(np.floor(align_slack / dt))
    tail_len = min(tail_fraction * s.span, W - align_slack)
    n_tail = int(np.floor(tail_len / dt))
    tail = _flat(s)[len(s) - n_tail:]

    best = (np.inf, -1, 0)
    offsets = np.arange(0, n_slack + 1, dtype=np.int64)
    for i, m in enumerate(hull.members):
        if abs(m.dt - dt) > 1e-9 * dt:
            m = m.resample(dt)
        src = _flat(m)
        if len(src) < n_tail + 1:
            continue
        offs = offsets[offsets <= len(src) - n_tail]
        v, k = _best_alignment(src, tail, offs)
        if v < best[0]:
            best = (v, i, k)
    residual = float(best[0])
    return residual < eps, residual, {"member": int(best[1]), "delta": float(best[2] * dt)}


def _disjoint_window_aap_residual(s: SampledSignal):
    """AAP proxy without an external AP family.

    Compares the final window of s against a slid early-mid window of the
    same length; a genuinely asymptotically almost periodic signal matches
    its own past after transients decay, while slow tail drift (the RAP-only
    regime) leaves a residual. Self-overlap is excluded by construction.
    """
    v = _flat(s)
    n = len(s)
    W = int(0.3 * n)
    h0 = int(n / 8)
    slack = int(n / 8)
    tail = v[n - W:]
    src = v[h0:h0 + slack + W]
    offsets = np.arange(0, slack + 1, dtype=np.int64)
    res, k = _best_alignment(src, tail, offsets)
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


def lagrange_stable_proxy(s: SampledSignal, range_bound: float, equicontinuity_bound: float):
    """Bounded range plus a one-step equicontinuity modulus estimate."""
    v = s.values
    mags = np.abs(v[:, 0]) if s.dim == 1 else np.sqrt(np.sum((v * v.conj()).real, axis=1))
    max_abs = float(np.max(mags))
    if len(s) > 1:
        dv = np.abs(np.diff(v[:, 0])) if s.dim == 1 else np.sqrt(
            np.sum((np.diff(v, axis=0) * np.diff(v, axis=0).conj()).real, axis=1))
        modulus = float(np.max(dv) / s.dt)
    else:
        modulus = 0.0
    ok = max_abs <= range_bound and modulus <= equicontinuity_bound
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

    ap_flag = True
    for eps in th.epsilon_grid:
        ts = translation_set_global(s, eps, w, cands)
        dense = ts.relatively_dense(th.gap_bound_factor)
        evidence["ap"][f"{eps:g}"] = {
            "n_accepted": int(len(ts.accepted_taus())),
            "max_gap": ts.max_gap,
            "dense": bool(dense),
        }
        ap_flag = ap_flag and dense

    rap_scan = True
    remote_sets = [translation_set_remote(s, eps, cands) for eps in th.epsilon_grid]
    for eps, ts in zip(th.epsilon_grid, remote_sets):
        dense = ts.relatively_dense(th.gap_bound_factor)
        evidence["rap"][f"{eps:g}"] = {
            "n_accepted": int(len(ts.accepted_taus())),
            "max_gap": ts.max_gap,
            "dense": bool(dense),
        }
        rap_scan = rap_scan and dense

    # remote tau-periodicity: try the smallest accepted remote translations
    rtp_flag, rtp_tau = False, None
    for tau in list(remote_sets[0].representatives()[:8]):
        ok, table = remotely_tau_periodic_test(s, float(tau), th.epsilon_grid)
        if ok:
            rtp_flag, rtp_tau = True, float(tau)
            evidence["remote_tau"] = {"tau": rtp_tau,
                                      "L_table": {k: v for k, v in table.items()}}
            break
    stat_flag, stat_witness = remotely_stationary_test(s, th.epsilon_grid, th.stationary_taus)
    evidence["stationary"] = {"all_taus_pass": bool(stat_flag),
                              "n_taus": len(th.stationary_taus)}
    if stat_flag and not rtp_flag:
        rtp_flag, rtp_tau = True, float(th.stationary_taus[0])

    aap_eps = th.epsilon_grid[0]
    residual, match_at = _disjoint_window_aap_residual(s)
    evidence["aap"] = {"residual": residual, "matched_at": match_at,
                       "threshold": aap_eps}
    aap_flag = residual < aap_eps

    lag_flag, lag_ev = lagrange_stable_proxy(s, th.range_bound, th.equicontinuity_bound)
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
    return RecurrenceReport(flags, evidence, th, w, remote_sets[0])
