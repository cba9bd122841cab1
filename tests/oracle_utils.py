"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, obvious way (explicit
loops, brute-force refinement, Monte Carlo) so it shares no code path with
the library it checks.
"""

import numpy as np


def loop_mode_product(t, m, mode):
    """Mode product via unfold-multiply-fold with explicit loops."""
    t = np.asarray(t)
    m = np.asarray(m)
    shape = list(t.shape)
    out_shape = shape.copy()
    out_shape[mode - 1] = m.shape[0]
    out = np.zeros(out_shape)
    for idx in np.ndindex(*out_shape):
        acc = 0.0
        for k in range(t.shape[mode - 1]):
            src = list(idx)
            src[mode - 1] = k
            acc += m[idx[mode - 1], k] * t[tuple(src)]
        out[idx] = acc
    return out


def loop_contract(a, b, dims_a, dims_b):
    """Tensor contraction with explicit nested loops."""
    a = np.asarray(a)
    b = np.asarray(b)
    free_a = [i for i in range(a.ndim) if (i + 1) not in dims_a]
    free_b = [i for i in range(b.ndim) if (i + 1) not in dims_b]
    out_shape = [a.shape[i] for i in free_a] + [b.shape[i] for i in free_b]
    contracted = [a.shape[d - 1] for d in dims_a]
    out = np.zeros(out_shape)
    for idx in np.ndindex(*out_shape):
        ia_free = idx[: len(free_a)]
        ib_free = idx[len(free_a):]
        acc = 0.0
        for kidx in np.ndindex(*contracted):
            ia = [0] * a.ndim
            ib = [0] * b.ndim
            for pos, i in zip(free_a, ia_free):
                ia[pos] = i
            for pos, i in zip(free_b, ib_free):
                ib[pos] = i
            for pos_a, pos_b, k in zip(dims_a, dims_b, kidx):
                ia[pos_a - 1] = k
                ib[pos_b - 1] = k
            acc += a[tuple(ia)] * b[tuple(ib)]
        out[idx] = acc
    return out


def explicit_kron(factors):
    """Kronecker product with the last factor outermost (matches the
    first-index-fastest linearization)."""
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = np.kron(out, f)
    return out


def gauss01(q):
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


def box_integral(fn, lows, highs, q=16):
    """Tensor Gauss-Legendre integral of fn over a box (fn maps (m,d)->(m,))."""
    gx, gw = gauss01(q)
    d = len(lows)
    axes = [lows[i] + (highs[i] - lows[i]) * gx for i in range(d)]
    wts = [(highs[i] - lows[i]) * gw for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    w = np.ones(mesh[0].shape)
    for i, wt in enumerate(wts):
        shape = [1] * d
        shape[i] = q
        w = w * wt.reshape(shape)
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return float(np.sum(fn(pts) * w.ravel()))


def shell_diagonal_average(fn, d, h, q=20, depth=60, tol=1e-14):
    """Adaptive-subdivision oracle for the singular cell average: integrate
    fn(z) over [-h/2, h/2]^d (singular at 0) by dyadic shells toward the
    singularity, each shell tiled by smooth sub-boxes, until the increment is
    negligible; divide by h^d."""
    total = 0.0
    s = h / 2.0
    for k in range(depth):
        outer = s * 2.0 ** (-k)
        inner = outer / 2.0
        edges = np.array([-outer, -inner, 0.0, inner, outer])
        contrib = 0.0
        for idx in np.ndindex(*([4] * d)):
            if all(1 <= i <= 2 for i in idx):
                continue  # the inner box, handled by later shells
            lows = edges[list(idx)]
            highs = edges[[i + 1 for i in idx]]
            contrib += box_integral(fn, lows, highs, q=q)
        total += contrib
        if k > 4 and abs(contrib) < tol * abs(total):
            break
    return total / h**d


def monte_carlo_overlap(tri, cell, samples=10**6, seed=0):
    """Monte Carlo estimate of |triangle ∩ rectangle| by sampling the
    rectangle uniformly and testing triangle membership."""
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = cell
    pts = rng.random((samples, 2)) * [x1 - x0, y1 - y0] + [x0, y0]
    a, b, c = np.asarray(tri, dtype=float)

    def side(p, q, r):
        return (q[0] - p[0]) * (r[:, 1] - p[1]) - (q[1] - p[1]) * (r[:, 0] - p[0])

    d1 = side(a, b, pts)
    d2 = side(b, c, pts)
    d3 = side(c, a, pts)
    neg = (d1 < 0) & (d2 < 0) & (d3 < 0)
    pos = (d1 > 0) & (d2 > 0) & (d3 > 0)
    inside = neg | pos
    return inside.mean() * (x1 - x0) * (y1 - y0)


def _halves(box):
    """The 2^d children of an index box (a tuple of (lo, hi) ranges), every
    range split at its midpoint, last dimension fastest."""
    halves = [((lo, (lo + hi) // 2), ((lo + hi) // 2, hi)) for lo, hi in box]
    return [tuple(halves[dim][c] for dim, c in enumerate(combo))
            for combo in np.ndindex(*(2,) * len(box))]


def _admissible(rule, tau, sigma):
    """The admissibility rule on index boxes, in units of the grid step:
    weak, no shared volume; strong, the larger squared diameter at most
    eta^2 times the squared distance, with the same relative slack."""
    if rule.kind == "weak":
        return any(min(t1, s1) <= max(t0, s0) for (t0, t1), (s0, s1) in zip(tau, sigma))
    diam_sq = max(sum((hi - lo) ** 2 for lo, hi in box) for box in (tau, sigma))
    dist_sq = sum(max(s0 - t1, t0 - s1, 0) ** 2 for (t0, t1), (s0, s1) in zip(tau, sigma))
    return diam_sq <= rule.eta * rule.eta * dist_sq * (1.0 + 1e-12)


def recursive_block_pairs(d, n, leaf_side, rule):
    """Every (tau, sigma) pair the recursive construction of the block
    cluster tree visits, depth first from (root, root), as (level, kind, tau
    ranges, sigma ranges); kind is "admissible" or "inadmissible" for a leaf
    and "internal" otherwise.  An admissible pair is a leaf, so is a pair of
    cluster leaves (boxes of side at most `leaf_side`), and every other pair
    recurses over its children pairs, sigma's child outer."""

    def visit(tau, sigma, level):
        if _admissible(rule, tau, sigma):
            yield level, "admissible", tau, sigma
        elif max(hi - lo for lo, hi in tau + sigma) <= leaf_side:
            yield level, "inadmissible", tau, sigma
        else:
            yield level, "internal", tau, sigma
            for s in _halves(sigma):
                for t in _halves(tau):
                    yield from visit(t, s, level + 1)

    root = ((0, n),) * d
    yield from visit(root, root, 0)


def polar_slp2d_triangle_average(corners, center):
    """Average of -log|center - y|/(2 pi) over the triangle, for a center
    inside it: split at the center into the three triangles on its edges;
    in polar coordinates about the center, the radius runs to
    R(theta) = dist / cos(theta - theta_perp) and
    int_0^R r log r dr = R^2/2 (log R - 1/2) is closed form, so only the
    angle is left to scipy.integrate.quad."""
    from scipy.integrate import quad

    corners = np.asarray(corners, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    total = 0.0
    for i in range(3):
        p = corners[i] - center
        q = corners[(i + 1) % 3] - center
        normal = np.array([q[1] - p[1], p[0] - q[0]]) / np.hypot(*(q - p))
        dist = p @ normal
        if dist < 0:
            normal, dist = -normal, -dist
        perp = np.arctan2(normal[1], normal[0])
        t0 = np.arctan2(p[1], p[0])
        # the edge's angular extent seen from the center, below pi
        sweep = (np.arctan2(q[1], q[0]) - t0 + np.pi) % (2 * np.pi) - np.pi

        def radial(theta):
            r = dist / np.cos(theta - perp)
            return -r * r / 2 * (np.log(r) - 0.5) / (2 * np.pi)

        lo, hi = sorted((t0, t0 + sweep))
        total += quad(radial, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    a, b, c = corners
    area = 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    return total / area
