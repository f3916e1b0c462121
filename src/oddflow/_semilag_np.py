"""Pure-numpy twin of the compiled bicubic kernel (see _semilag_c.c): its
arithmetic in its order, on planes wrap-padded by one node before and two after
on both axes, so a point's 4x4 stencil is 16 fixed offsets from one flat index."""

import numpy as np

_FAR = 2.0**62  # past this a cell number may not fit an int64 (the compiled kernel's bound)


def _weights(t):
    tp1, tm1, tm2 = t + 1.0, t - 1.0, t - 2.0
    return (-t * tm1 * tm2 / 6.0, tp1 * tm1 * tm2 / 2.0,
            -tp1 * t * tm2 / 2.0, tp1 * t * tm1 / 6.0)


def _reduced(s, n):
    """Points s (in node spacings) on an axis of n nodes, and their cells
    floor(s), made safe to cast: a non-finite s becomes NaN, with cell 0,
    and one past _FAR, a whole number there, is reduced by fmod, as the
    compiled kernel reduces its cell."""
    s = np.where(np.isfinite(s), s, np.nan)
    s = np.where(np.abs(s) < _FAR, s, np.fmod(s, n))
    return s, np.nan_to_num(np.floor(s))


def bicubic_periodic(values, x1, x2, h1, h2, clamp, out):
    """Clamped cubic Lagrange interpolation on a periodic grid.

    The compiled kernel's call: sample the (k, n1, n2) planes `values` at
    the m points (x1, x2) into the caller's (k, m) array `out`; with clamp
    true each result is limited to the min/max of its surrounding 2x2 nodes.
    """
    planes = np.pad(values, ((0, 0), (1, 2), (1, 2)), mode="wrap")
    k, m1, m2 = planes.shape
    flat = planes.reshape(k, m1 * m2)
    for c in range(0, x1.size, 8192):  # blocks of points keep the work arrays in cache
        blk = slice(c, c + 8192)
        s1, s2 = x1[blk] / h1, x2[blk] / h2
        f1, f2 = np.floor(s1), np.floor(s2)
        # a sum of squares below _FAR^2 bounds every |f|, and is NaN or inf
        # if any f is; of such tests a dot product is the cheapest
        if not np.dot(f1, f1) + np.dot(f2, f2) < _FAR * _FAR:
            (s1, f1), (s2, f2) = _reduced(s1, m1 - 3), _reduced(s2, m2 - 3)
        w1, w2 = _weights(s1 - f1), _weights(s2 - f2)
        base = np.mod(f1.astype(np.int64), m1 - 3) * m2 + np.mod(f2.astype(np.int64), m2 - 3)
        idx, v = np.empty_like(base), np.empty((k, base.size))
        row, acc = np.empty_like(v), out[:, blk]
        acc.fill(0.0)
        if clamp:
            lo, hi = np.full_like(v, np.inf), np.full_like(v, -np.inf)
        for a in range(4):
            row.fill(0.0)
            for b in range(4):
                np.add(base, a * m2 + b, out=idx)
                np.take(flat, idx, axis=1, out=v, mode="clip")  # unbuffered; idx is in range
                if clamp and 1 <= a <= 2 and 1 <= b <= 2:
                    np.minimum(lo, v, out=lo)
                    np.maximum(hi, v, out=hi)
                v *= w2[b]
                row += v
            row *= w1[a]
            acc += row
        if clamp:
            np.clip(acc, lo, hi, out=acc)
