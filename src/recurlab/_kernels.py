"""Hot numeric kernels: sup distances, sliding-window matches, batched roots.

Every kernel is plain numpy; there is no compiled backend. The functions
keep small, stable signatures so callers (and outside tracers) can bind
them by name.
"""

import numpy as np


def backend_name():
    return "numpy"


# ---------------------------------------------------------------------------
# sup distances
# ---------------------------------------------------------------------------

def sup_diff(a, b):
    """max_i |a_i - b_i| for flat arrays (real or complex)."""
    return float(np.max(np.abs(a - b))) if len(a) else 0.0


def sup_diff_rows(a, b):
    """max_i ||a_i - b_i||_2 over rows of (n, d) arrays."""
    d = a - b
    return float(np.sqrt(np.max(np.sum((d * d.conj()).real, axis=1)))) if len(a) else 0.0


def sup_diff_capped(a, b, cap):
    """Like :func:`sup_diff`; a result >= cap only means "not below cap".

    Callers must not rely on the exact value past the cap; this kernel
    still returns the exact sup.
    """
    return sup_diff(a, b)


# ---------------------------------------------------------------------------
# sliding-window match (minimality / alignment searches)
# ---------------------------------------------------------------------------

def min_sliding_sup(src, target, offsets, stop_below=0.0):
    """Minimum over integer offsets of the windowed sup distance.

    ``src`` and ``target`` are flat arrays; every offset k must satisfy
    k + len(target) <= len(src). Returns (best value, best offset).
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    best = np.inf
    best_k = -1
    nt = len(target)
    # coarse pre-filter on a subsample, then exact sup on survivors
    stride = max(1, nt // 64)
    probe = np.arange(0, nt, stride)
    for k in offsets:
        seg = src[k:k + nt]
        if np.max(np.abs(seg[probe] - target[probe])) >= best:
            continue
        m = np.max(np.abs(seg - target))
        if m < best:
            best = m
            best_k = int(k)
            if best < stop_below:
                break
    return float(best), best_k


def min_sliding_probe(src, target_sub, offsets, probe):
    """Sliding minimum evaluated only at the probe indices of the window.

    Returns a lower bound of the windowed sup per offset; used as the
    coarse stage of alignment searches.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    probe = np.asarray(probe, dtype=np.int64)
    best = np.inf
    best_k = -1
    chunk = max(1, int(4_000_000 // max(1, len(probe))))
    for c0 in range(0, len(offsets), chunk):
        off = offsets[c0:c0 + chunk]
        mat = src[off[:, None] + probe[None, :]]
        vals = np.max(np.abs(mat - target_sub[None, :]), axis=1)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_k = int(off[i])
    return best, best_k


# ---------------------------------------------------------------------------
# simultaneous polynomial root iteration (Aberth-Ehrlich + Newton polish)
# ---------------------------------------------------------------------------

def _poly_eval_many(a, z):
    # a: (N, n) tail coefficients, z: (N, n) points; Horner on x^n + sum a_j x^(n-1-j)
    N, n = a.shape
    p = np.ones_like(z)
    for j in range(n):
        p = p * z + a[:, j][:, None]
    return p


def _aberth_sweep(coefs, z, maxit, tol):
    N, n = coefs.shape
    active = np.ones(N, dtype=bool)
    for _ in range(maxit):
        za = z[active]
        a = coefs[active]
        p = np.ones_like(za)
        dp = np.zeros_like(za)
        for j in range(n):
            dp = dp * za + p
            p = p * za + a[:, j][:, None]
        dp = np.where(dp == 0, 1e-30, dp)
        w = p / dp
        if n > 1:
            diff = za[:, :, None] - za[:, None, :]
            np.einsum("ijj->ij", diff)[:] = 1.0  # silence the diagonal
            ssum = np.sum(1.0 / diff, axis=2) - 1.0
        else:
            ssum = np.zeros_like(w)
        denom = 1.0 - w * ssum
        denom = np.where(denom == 0, 1.0, denom)
        corr = w / denom
        cap = 0.5 * (1.0 + np.abs(za))
        ac = np.abs(corr)
        # clamp |corr| to cap; dividing by max(|corr|, cap) >= 0.5 cannot overflow
        corr = corr * (cap / np.maximum(ac, cap))
        done = np.abs(p) <= tol[active][:, None]
        corr = np.where(done, 0.0, corr)
        z[active] = za - corr
        moved = np.max(np.abs(corr), axis=1)
        idx = np.where(active)[0]
        active[idx[moved <= 1e-15]] = False
        if not active.any():
            break
    # Newton polish
    for _ in range(2):
        p = np.ones_like(z)
        dp = np.zeros_like(z)
        for j in range(n):
            dp = dp * z + p
            p = p * z + coefs[:, j][:, None]
        safe = np.abs(dp) > 1e-12 * (1.0 + np.abs(p))
        step = np.where(safe, p / np.where(dp == 0, 1.0, dp), 0.0)
        step = np.where(np.abs(step) < 1.0 + np.abs(z), step, 0.0)
        z = z - step
    return z


def aberth_grid(coefs, seeds, maxit=80, rtol=1e-12):
    """Roots of monic polynomials along a coefficient path.

    ``coefs[g]`` holds a_1..a_n of x^n + a_1 x^(n-1) + ... + a_n at grid
    point g; every point is iterated in one batch from the seed circle,
    and points whose residual misses the gate are re-seeded on a circle
    of radius 1 + max(1, max_j |a_j|) and iterated again. Root ORDER per
    point is arbitrary; callers needing continuity must match.
    """
    coefs = np.ascontiguousarray(coefs, dtype=np.complex128)
    seeds = np.ascontiguousarray(seeds, dtype=np.complex128)
    N, n = coefs.shape
    z = np.tile(seeds, (N, 1)).astype(np.complex128)
    scale = np.maximum(1.0, np.max(np.abs(coefs), axis=1))
    tol = rtol * (1.0 + scale) ** n
    z = _aberth_sweep(coefs, z, maxit, tol)
    res = _poly_eval_many(coefs, z)
    bad = np.max(np.abs(res), axis=1) > tol
    if bad.any():
        radius = (1.0 + scale[bad])[:, None]
        angles = 2 * np.pi * (np.arange(n) + 0.375) / n
        zb = radius * np.exp(1j * angles)[None, :]
        z[bad] = _aberth_sweep(coefs[bad], zb.astype(np.complex128), 4 * maxit, tol[bad])
    return z
