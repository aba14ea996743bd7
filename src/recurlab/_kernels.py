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
    """The exact sup, as :func:`sup_diff`; ``cap`` is not read.

    The cap is the caller's decision threshold (a result >= cap means "not
    below cap"). No caller needs the value past the cap: the translation
    scans first stop at a strided probe, then at the first array whose sup
    reaches the cap (:func:`recurrence._joint_sup`). Outside tracers bind
    the kernel by this name and signature.
    """
    return sup_diff(a, b)


# ---------------------------------------------------------------------------
# sliding-window match (minimality / alignment searches)
# ---------------------------------------------------------------------------

_U = np.finfo(float).eps / 2  # unit roundoff


def sliding_rms(src, target, n_off):
    """Lower bound of the RMS of ``src[k:k+nt] - target`` for k < n_off.

    One rfft cross-correlation plus prefix sums of squares give
    ``ss_k - 2 c_k + tt`` for every offset at once (MASS). Both arrays are
    centred on the target mean and scaled by a power of two first; a
    rounding slack for the cancellation, the centring and the final sqrt
    is subtracted, so each entry is at most the computed
    ``max|src[k:k+nt] - target|``. A complex signal is the sum of its real
    and imaginary parts. Requires n_off + len(target) - 1 <= len(src).
    """
    nt = len(target)
    n_src = n_off + nt - 1
    centre = np.mean(target)
    x = np.asarray(src)[:n_src] - centre
    y = np.asarray(target) - centre
    mag = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    if not 0.0 < mag < np.inf:
        return np.zeros(n_off)
    scale = 2.0 ** -np.frexp(mag)[1]  # exact; every |value| is now < 1
    x = x * scale
    y = y * scale
    parts = [(x.real, y.real), (x.imag, y.imag)] if np.iscomplexobj(x) else [(x, y)]
    nfft = 1 << (n_src - 1).bit_length()
    dist = np.zeros(n_off)
    slack = 1e-290  # underflow of squares and FFT products
    for xp, yp in parts:
        sq = np.concatenate(([0.0], np.cumsum(xp * xp)))
        ss = sq[nt:nt + n_off] - sq[:n_off]
        tt = float(np.dot(yp, yp))
        corr = np.fft.irfft(np.fft.rfft(xp, nfft) * np.conj(np.fft.rfft(yp, nfft)), nfft)[:n_off]
        dist += ss - 2.0 * corr + tt
        total = float(sq[-1])
        slack += _U * (4.0 * n_src * total + 2.0 * nt * tt
                       + 64.0 * (np.log2(nfft) + 1.0) * np.sqrt(total * tt))
    rms = np.sqrt(np.maximum(dist - slack, 0.0) / nt) - 4.0 * _U
    return np.maximum(rms, 0.0) * ((1.0 - 64.0 * _U) / scale)


def min_sliding_sup(src, target, offsets):
    """Exact minimum over the given offsets of the windowed sup distance.

    ``src`` and ``target`` are flat arrays; every offset k must satisfy
    k + len(target) <= len(src). Returns (min over offsets of
    ``max|src[k:k+nt] - target|``, the first offset in the given order that
    attains it); pass ascending offsets for the lowest one. Every offset
    is an exact evaluation, skipped early only when a probe subset of its
    window already reaches the best value so far.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    best = np.inf
    best_k = -1
    nt = len(target)
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
    return float(best), best_k


def min_sliding_probe(src, target_sub, offsets, probe):
    """Per-offset sup over the probe columns of the window.

    Returns an array: entry i is ``max_p |src[offsets[i] + p] - target_sub[j]|``
    over ``p = probe[j]``. A max over a subset of the window, it is an
    admissible lower bound of the exact windowed sup at that offset.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    probe = np.asarray(probe, dtype=np.int64)
    out = np.empty(len(offsets))
    chunk = max(1, int(4_000_000 // max(1, len(probe))))
    for c0 in range(0, len(offsets), chunk):
        off = offsets[c0:c0 + chunk]
        mat = src[off[:, None] + probe[None, :]]
        out[c0:c0 + chunk] = np.max(np.abs(mat - target_sub[None, :]), axis=1)
    return out


# ---------------------------------------------------------------------------
# batched polynomial roots (closed forms, companion eigenvalues, Newton polish)
# ---------------------------------------------------------------------------

def horner(coefs, z):
    """(p, p') of x^n + a_1 x^(n-1) + ... + a_n at z, row by row.

    ``coefs`` is (N, n) with rows a_1..a_n; ``z`` is (N, m) points.
    """
    p = z + coefs[:, :1]
    dp = np.ones_like(z)
    for j in range(1, coefs.shape[1]):
        dp *= z
        dp += p
        p *= z
        p += coefs[:, j, None]
    return p, dp


def _ldexp(z, e):
    """z * 2**e for complex z and integer e, exact unless the result under- or overflows."""
    out = np.empty_like(z)
    out.real = np.ldexp(z.real, e)
    out.imag = np.ldexp(z.imag, e)
    return out


def _quadratic_roots(b, c):
    """Both roots of x^2 + b x + c, (N, 2), by the cancellation-free formula.

    q = -(b + sigma sqrt(b^2 - 4c)) / 2 with sigma = +-1 chosen so that
    Re(conj(b) sigma sqrt) >= 0, which makes q the larger root; the other
    is c / q (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, sec. 1.8). b and c are first scaled by 2^-e and 2^-2e, with 2^e
    the magnitude of the largest of |b| and sqrt|c|, so b^2 and 4c cannot
    overflow. The scaled q has modulus in [1/4, 3], and c / q is taken as
    (c 2^-e) / (q 2^-e): neither a tiny c nor a subnormal q can under- or
    overflow the division. Both roots are 0 when q is.
    """
    m = np.maximum(np.maximum(np.abs(b.real), np.abs(b.imag)),
                   np.sqrt(np.maximum(np.abs(c.real), np.abs(c.imag))))
    e = np.frexp(m)[1]
    bs = _ldexp(b, -e)
    r = np.sqrt(bs * bs - 4.0 * _ldexp(c, -2 * e))
    r = np.where((bs.conj() * r).real >= 0.0, r, -r)
    qs = -0.5 * (bs + r)
    return np.column_stack([_ldexp(qs, e),
                            np.divide(_ldexp(c, -e), qs, out=np.zeros_like(qs), where=qs != 0)])


def aberth_grid(coefs):
    """Roots of monic polynomials along a coefficient path, (N, n) complex.

    ``coefs[g]`` holds a_1..a_n of x^n + a_1 x^(n-1) + ... + a_n at grid
    point g. The degree picks the root source: -a_1 for n = 1, the
    scaled cancellation-free closed form for n = 2
    (:func:`_quadratic_roots`), and above that one batched
    ``np.linalg.eigvals`` call on the companion matrices (Edelman &
    Murakami, Math. Comp. 1995), real when no coefficient has an
    imaginary part, so that complex roots come in exact conjugate pairs.
    Every degree then gets two guarded Newton steps. Root ORDER per point
    is arbitrary; callers needing continuity must match. Raises
    ``np.linalg.LinAlgError`` on non-finite coefficients or when the
    eigenvalue iteration fails. The Aberth-Ehrlich iteration this replaced
    gave the function its name, which is kept because outside tracers bind
    the root-solving layer by it.
    """
    coefs = np.ascontiguousarray(coefs, dtype=np.complex128)
    if not np.all(np.isfinite(coefs)):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    N, n = coefs.shape
    if n == 1:
        z = -coefs
    elif n == 2:
        z = _quadratic_roots(coefs[:, 0], coefs[:, 1])
    else:
        real = not np.any(coefs.imag)
        comp = np.zeros((N, n, n), dtype=np.float64 if real else np.complex128)
        comp[:, 0, :] = -(coefs.real if real else coefs)
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        z = np.linalg.eigvals(comp).astype(np.complex128, copy=False)
    for _ in range(2):
        p, dp = horner(coefs, z)
        safe = np.abs(dp) > 1e-12 * (1.0 + np.abs(p))
        step = np.divide(p, dp, out=np.zeros_like(p), where=safe)
        step = np.where(np.abs(step) < 1.0 + np.abs(z), step, 0.0)
        z = z - step
    return z
