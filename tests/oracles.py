"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's solution paths. The proximal-map
oracles enumerate dense 2x2 grids (a global pass over the admissible box
plus a fine local pass around the candidate) and report the best value
found, so asserting "the implementation's value is no worse than every
grid point" checks optimality directly. The dual-norm oracle minimizes
the decomposition objective by rigorous multistage grid refinement: each
stage retains the bounding box of all grid points within the one-cell
Lipschitz margin of the stage minimum, so the true minimizer never
escapes and the final value carries an explicit error bound.
"""

import math

import numpy as np


def spectral_2x2(z1, z2, z3, z4):
    """Vectorized closed-form largest singular value of [[z1,z2],[z3,z4]]."""
    f = z1 * z1 + z2 * z2 + z3 * z3 + z4 * z4
    det = z1 * z4 - z2 * z3
    disc = np.sqrt(np.maximum(f * f - 4.0 * det * det, 0.0))
    return np.sqrt(np.maximum((f + disc) * 0.5, 0.0))


def nuclear_2x2(z1, z2, z3, z4):
    """Vectorized nuclear norm of [[z1,z2],[z3,z4]]: sqrt(f + 2|det|)."""
    f = z1 * z1 + z2 * z2 + z3 * z3 + z4 * z4
    det = z1 * z4 - z2 * z3
    return np.sqrt(np.maximum(f + 2.0 * np.abs(det), 0.0))


def _grid_min(objective, lo, hi, pts):
    ax = [np.linspace(lo[i], hi[i], pts) for i in range(4)]
    val = objective(ax[0][:, None, None, None],
                    ax[1][None, :, None, None],
                    ax[2][None, None, :, None],
                    ax[3][None, None, None, :])
    return float(val.min())


def _two_pass_min(objective, lo, hi, center, pts=17):
    """Best objective over a global grid on [lo, hi] and a fine local grid
    around `center` (one global cell each way at 8x resolution)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    center = np.asarray(center, dtype=float).ravel()
    best = _grid_min(objective, lo, hi, pts)
    cell = (hi - lo) / (pts - 1)
    best_local = _grid_min(objective, center - cell, center + cell, pts)
    return min(best, best_local)


def svt_value_oracle(a, tau, x_candidate, pts=17):
    """Best value of tau*||X||_* + 0.5*||X - a||_F^2 over dense 2x2 grids.

    The box a +- tau*sqrt(2) contains the true minimizer (a prox step moves
    at most tau times the largest subgradient norm).
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    reach = tau * np.sqrt(2.0) + 1e-9

    def objective(z1, z2, z3, z4):
        nuc = nuclear_2x2(z1, z2, z3, z4)
        quad = ((z1 - flat[0]) ** 2 + (z2 - flat[1]) ** 2
                + (z3 - flat[2]) ** 2 + (z4 - flat[3]) ** 2)
        return tau * nuc + 0.5 * quad

    return _two_pass_min(objective, flat - reach, flat + reach,
                         x_candidate, pts)


def dual_norm_oracle(a, theta, target=5e-4, max_stages=40):
    """min over Y+Z=a of max(||Y||, ||Z||_inf/theta) for a 2x2 matrix, by
    multistage grid refinement over the four entries of Z.

    Returns (value, error_bound). The retention rule keeps the whole
    one-cell Lipschitz sublevel set, so the minimizer never escapes the
    box; the bound stalls when the minimizer set has flat directions, but
    the value itself keeps converging through the curved ones (validated
    against certified primal/dual enclosures during development).
    """
    a = np.asarray(a, dtype=float)
    assert a.shape == (2, 2) and theta > 0
    flat = a.ravel()
    ub = min(float(np.linalg.svd(a, compute_uv=False)[0]),
             float(np.abs(a).max()) / theta)
    c = theta * ub  # the optimal Z satisfies ||Z||_inf <= theta * dual norm
    lo = np.full(4, -c)
    hi = np.full(4, c)
    lip = max(1.0, 1.0 / theta)

    def objective(z1, z2, z3, z4):
        spec = spectral_2x2(flat[0] - z1, flat[1] - z2,
                            flat[2] - z3, flat[3] - z4)
        linf = np.maximum(np.maximum(np.abs(z1), np.abs(z2)),
                          np.maximum(np.abs(z3), np.abs(z4))) / theta
        return np.maximum(spec, np.broadcast_to(linf, spec.shape))

    best = np.inf
    pts = 13
    err = np.inf
    center = np.zeros(4)
    stalled = 0
    for _ in range(max_stages):
        step = (hi - lo) / (pts - 1)
        prev_err = err
        err = lip * float(np.linalg.norm(step))
        ax = [np.linspace(lo[i], hi[i], pts) for i in range(4)]
        val = objective(ax[0][:, None, None, None],
                        ax[1][None, :, None, None],
                        ax[2][None, None, :, None],
                        ax[3][None, None, None, :])
        vmin = float(val.min())
        if vmin < best:
            best = vmin
            at = np.unravel_index(int(np.argmin(val)), val.shape)
            center = np.array([ax[d][at[d]] for d in range(4)])
        if err <= target:
            break
        # flat minimizer directions pin the error bound; once it stops
        # improving, hand over to the local polish
        stalled = stalled + 1 if err > 0.98 * prev_err else 0
        if stalled >= 3 and pts >= 31:
            break
        idx = np.nonzero(val <= vmin + err)
        old_volume = float(np.prod(hi - lo))
        for d in range(4):
            lo[d] = max(lo[d], ax[d][idx[d].min()] - step[d])
            hi[d] = min(hi[d], ax[d][idx[d].max()] + step[d])
        if old_volume > 0 and float(np.prod(hi - lo)) / old_volume > 0.4:
            pts = min(2 * pts - 1, 31)

    # local polish around the incumbent: a pure upper-bound improvement
    # (every evaluated decomposition bounds the minimum from above)
    half = np.maximum((hi - lo) / 2.0, 1e-12)
    for _ in range(35):
        ax = [np.linspace(center[d] - half[d], center[d] + half[d], 11)
              for d in range(4)]
        val = objective(ax[0][:, None, None, None],
                        ax[1][None, :, None, None],
                        ax[2][None, None, :, None],
                        ax[3][None, None, None, :])
        at = np.unravel_index(int(np.argmin(val)), val.shape)
        vmin = float(val.min())
        if vmin < best:
            best = vmin
            center = np.array([ax[d][at[d]] for d in range(4)])
        half *= 0.5
    return best, err


def l1_halfspace_prox(w, a, t):
    """(mu, x) with x = soft(w + mu a, t) the point of {<a, X> >= 1}
    nearest to w in t*||.||_1 + 0.5*||. - w||_F^2, by sorting the
    breakpoints of h(mu) = <a, soft(w + mu a, t)>.

    h is piecewise linear and nondecreasing, with its breakpoints where an
    entry meets the threshold: mu = (+-t - w_ij) / a_ij. mu = 0 when
    h(0) >= 1; otherwise mu solves h(mu) = 1 on the piece between the two
    sorted breakpoints that bracket the root, located by bisection over
    the sorted list, with each h an exactly rounded sum (math.fsum).
    """
    w = np.asarray(w, dtype=float)
    a = np.asarray(a, dtype=float)

    def soft(mu):
        v = w + mu * a
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    def h(mu):
        return math.fsum((a * soft(mu)).ravel())

    if h(0.0) >= 1.0:
        return 0.0, soft(0.0)
    on = a != 0
    points = np.concatenate([(t - w[on]) / a[on], (-t - w[on]) / a[on]])
    points = np.unique(points[points > 0.0])
    lo, hi = 0, points.size          # h(points[lo - 1]) < 1, or lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if h(points[mid]) < 1.0:
            lo = mid + 1
        else:
            hi = mid
    left = points[lo - 1] if lo else 0.0
    h_left = h(left)
    if lo < points.size:
        right = points[lo]
        slope = (h(right) - h_left) / (right - left)
    else:
        # beyond the last breakpoint every entry with a_ij != 0 is active
        slope = math.fsum((a[on] ** 2).ravel())
    mu = left + (1.0 - h_left) / slope
    return mu, soft(mu)


def dr2_residuals(a, theta, penalty, relax, iterations):
    """The relaxed Douglas-Rachford iteration of `solve` on whole arrays,
    with a full SVD and the sort-based l1_halfspace_prox: per iteration,
    the relative primal residual ||x1 - x2|| / ||x2||, the relative dual
    residual ||x2+ - x2|| / ||x2+|| and the step ||z+ - z||."""
    a = np.asarray(a, dtype=float)
    nf2 = float(np.vdot(a, a))
    rho = penalty * np.sqrt(nf2)
    z = a / nf2
    x2 = np.zeros_like(a)
    out = []
    for _ in range(iterations):
        left, s, vt = np.linalg.svd(z, full_matrices=False)
        x1 = (left * np.maximum(s - 1.0 / rho, 0.0)) @ vt
        _, x2_next = l1_halfspace_prox(2.0 * x1 - z, a, theta / rho)
        scale = np.linalg.norm(x2_next)
        diff = np.linalg.norm(x2_next - x1)
        out.append((diff / scale, np.linalg.norm(x2_next - x2) / scale,
                    relax * diff))
        z = z + relax * (x2_next - x1)
        x2 = x2_next
    return out
