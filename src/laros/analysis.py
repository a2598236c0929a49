"""Closed-form thresholds, sparsity tests, tail bounds, regime validation,
and the blockwise dual-certificate construction for planted instances."""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_gram_singular_values, _scale_exponent, _support_svd,
                     as_matrix, norm)

LOG7 = math.log(7.0)


def _clamp_nonnegative(u, v, message):
    """u and v with entries clamped at 0, after a ValueError(message) if
    an entry of either lies below -1e-8, beyond the roundoff of a
    nonnegative vector."""
    if u.min() < -1e-8 or v.min() < -1e-8:
        raise ValueError(message)
    return np.maximum(u, 0.0), np.maximum(v, 0.0)


@dataclass(frozen=True)
class BlockSelector:
    """Row and column index sets (0-based) naming a submatrix."""

    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        rows = np.unique(np.asarray(self.rows, dtype=int))
        cols = np.unique(np.asarray(self.cols, dtype=int))
        if rows.size != len(self.rows) or cols.size != len(self.cols):
            raise ValueError("block indices must not repeat")
        if rows.size == 0 or cols.size == 0:
            raise ValueError("block must be nonempty")
        if rows.min() < 0 or cols.min() < 0:
            raise ValueError("block indices must be nonnegative")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def validate(self, shape):
        m, n = shape
        if self.rows.max() >= m or self.cols.max() >= n:
            raise ValueError(f"block exceeds matrix shape {shape}")

    def covers(self, shape):
        return self.rows.size == shape[0] and self.cols.size == shape[1]


def theta_A(a):
    """Threshold below which the optimizer is provably unique and rank-one
    (requires sigma_1 > sigma_2): (sigma_1-sigma_2)/((3*sigma_1-sigma_2)*sqrt(mn)).

    Returns 0 when sigma_1 = sigma_2. The ratio is scale-free, so sigma_1
    and sigma_2 are those of a / 2^e (`_scale_exponent`) by the Gram route:
    to a few ulps, but about 1e-8 relative low on an exactly rank-one a.
    """
    am = as_matrix(a)
    if not am.any():
        raise ValueError("threshold undefined at the zero matrix")
    s = _gram_singular_values(np.ldexp(am, -_scale_exponent(am)))
    s1 = float(s[0])
    s2 = float(s[1]) if s.size > 1 else 0.0
    if s1 <= s2:
        return 0.0
    m, n = am.shape
    return (s1 - s2) / ((3.0 * s1 - s2) * math.sqrt(m * n))


def theta_B(a, block):
    """Threshold above which every optimizer vanishes outside `block`,
    provided the block's mean entry exceeds the maximum entry outside.

    Returns (a_bar*sqrt(MN) + a_max) / ((a_bar - a_max)*sqrt(MN)), or None
    when the mean-dominance hypothesis fails (a distinct outcome, never
    encoded as a number).
    """
    am = as_matrix(a)
    if am.min() < 0:
        raise ValueError("matrix must be nonnegative")
    block.validate(am.shape)
    if block.covers(am.shape):
        raise ValueError("block must not cover the whole matrix")
    sub = am[np.ix_(block.rows, block.cols)]
    a_bar = float(sub.mean())
    mask = np.ones(am.shape, dtype=bool)
    mask[np.ix_(block.rows, block.cols)] = False
    a_max = float(am[mask].max())
    if a_bar <= a_max:
        return None
    root = math.sqrt(block.rows.size * block.cols.size)
    return (a_bar * root + a_max) / ((a_bar - a_max) * root)


def row_zero_threshold(a, i, j):
    """Theta above which row `j` of every nonnegative rank-one optimizer is
    zero, from domination of row `j` by row `i`.

    With alpha = min(row i) / max(row j): returns 1/(alpha-1) when alpha > 1,
    0 when row j is identically zero (any positive theta works), and None
    when the domination hypothesis fails.
    """
    am = as_matrix(a)
    if am.min() < 0:
        raise ValueError("matrix must be nonnegative")
    if i == j:
        raise ValueError("row indices must differ")
    m = am.shape[0]
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"row index out of range for {m} rows")
    peak_j = float(am[j].max())
    if peak_j == 0.0:
        return 0.0
    alpha = float(am[i].min()) / peak_j
    if alpha <= 1.0:
        return None
    return 1.0 / (alpha - 1.0)


def row_zero_thresholds(a):
    """Table of row_zero_threshold(a, i, j) over all row pairs, None on the
    diagonal, as a list of rows.

    Computed from the row minima and maxima with the same floating-point
    operations as the per-pair function, so every value is bit-identical.
    """
    am = as_matrix(a)
    m = am.shape[0]
    # as the per-pair function: a single row has no pair to reject
    if m > 1 and am.min() < 0:
        raise ValueError("matrix must be nonnegative")
    peaks = am.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = am.min(axis=1)[:, None] / peaks[None, :]
        table = np.where(alpha > 1.0, 1.0 / (alpha - 1.0), np.nan)
    table[:, peaks == 0.0] = 0.0
    table[np.diag_indices(m)] = np.nan
    return [[None if math.isnan(v) else v for v in row]
            for row in table.tolist()]


@dataclass(frozen=True)
class RowRatioReport:
    """Per-row and per-column optimality-ratio residuals, relative to the
    dual norm. In-support entries must match the dual norm exactly; zero
    entries must not exceed it (one-sided)."""

    row_in_support: np.ndarray
    row_zero: np.ndarray
    col_in_support: np.ndarray
    col_zero: np.ndarray
    dual_norm: float

    @property
    def max_residual(self):
        """The largest residual, 0 with none; NaN if any residual is NaN."""
        parts = (self.row_in_support, self.row_zero, self.col_in_support,
                 self.col_zero)
        # np.max propagates a NaN, where Python's max skips one that is
        # not its first argument
        return float(np.max(np.concatenate(parts), initial=0.0))


def row_ratio_check(a, sol, theta, dual_norm):
    """Check the rank-one optimality ratios of a solved instance.

    For a nonnegative rank-one solution sigma*u*v^T: every supported row i
    must satisfy (a_i . v)/(theta*||v||_1 + u_i) = dual norm, and every zero
    row j must satisfy (a_j . v)/(theta*||v||_1) <= dual norm; columns
    symmetrically. Residuals are relative to the dual norm, which the
    caller supplies (1 / sol.objective for an exact solve).
    """
    am = as_matrix(a)
    if theta <= 0:
        raise ValueError("ratio check requires theta > 0")
    u = np.asarray(sol.u, dtype=float)
    v = np.asarray(sol.v, dtype=float)
    if sol.sigma <= 0:
        raise ValueError("solution must be nonzero rank-one")
    sx = _support_svd(as_matrix(sol.x), compute_uv=False)
    if sx.size > 1 and sx[1] > 1e-6 * sx[0]:
        raise ValueError("solution is not numerically rank-one")
    u, v = _clamp_nonnegative(u, v, "solution factors must be nonnegative")
    d = float(dual_norm)

    tv = theta * v.sum()
    tu = theta * u.sum()
    row_gain = am @ v
    col_gain = am.T @ u
    in_r = np.zeros(am.shape[0], dtype=bool)
    in_r[sol.support_rows] = True
    in_c = np.zeros(am.shape[1], dtype=bool)
    in_c[sol.support_cols] = True
    rows_in = np.abs(row_gain[in_r] / (tv + u[in_r]) - d) / d
    rows_zero = np.maximum(0.0, row_gain[~in_r] / tv - d) / d
    cols_in = np.abs(col_gain[in_c] / (tu + v[in_c]) - d) / d
    cols_zero = np.maximum(0.0, col_gain[~in_c] / tu - d) / d
    return RowRatioReport(row_in_support=rows_in, row_zero=rows_zero,
                          col_in_support=cols_in, col_zero=cols_zero,
                          dual_norm=d)


def subgaussian_tail_bound(u, b, m, n):
    """Tail probability bound for the spectral norm of an m-by-n matrix of
    independent b-subgaussian entries: exp(-(8u^2/(81b^2) - log(7)(m+n))),
    clamped into [0, 1]."""
    # written so that NaN fails too
    if not (0.0 < u < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"u and b must be finite and positive, got {u}, {b}")
    exponent = 8.0 * u * u / (81.0 * b * b) - LOG7 * (m + n)
    # clamped before exp, which overflows for m + n above about 365
    return 1.0 if exponent <= 0 else math.exp(-exponent)


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of validating planted-model constants and theta window."""

    valid: bool
    violated: tuple
    theta_lo: float
    theta_hi: float
    k1_bound: float
    k2_bound: float


def validate_planted_regime(model, c5, theta):
    """Check the planted-model hypotheses for slack constant `c5` and the
    given theta: constant inequalities, the theta window, and the two
    minimum-size requirements. Report-only."""
    violated = []
    c1, c2, c3, b = model.c1, model.c2, model.c3, model.b
    m, n, bm, bn = model.m, model.n, model.M, model.N
    root = math.sqrt(bm * bn)

    if not c5 > c1 + c2 + c1 * c2:
        violated.append("c5-exceeds-perturbation-mass")
    if not c5 <= 1.0 / 3.0:
        violated.append("c5-at-most-one-third")
    if not c3 + c5 < 1.0:
        violated.append("c3-plus-c5-below-one")

    denom_lo = 1.0 - c3 - c5
    theta_lo = (2.0 * c3 / (denom_lo * root)) if denom_lo > 0 else math.inf
    if c5 > 0:
        theta_hi = min(1.0 / (c3 + c5), (1.0 + c3 - 3.0 * c5) / (2.0 * c5)) / root
    else:
        theta_hi = (1.0 / (c3 + c5) / root) if c3 + c5 > 0 else math.inf
    if theta < theta_lo:
        violated.append("theta-below-window")
    if theta > theta_hi:
        violated.append("theta-above-window")

    k1 = (LOG7 * 81.0 * b * b) ** (4.0 / 3.0)
    if bm * bn < k1 * (bm + bn) ** (4.0 / 3.0):
        violated.append("block-area-vs-perimeter")
    k2 = (LOG7 * 36.0 * 81.0 * b * b / (8.0 * c5 * c5)) if c5 > 0 else math.inf
    if bm * bn < k2 * (m + n):
        violated.append("block-area-vs-ambient-size")

    return RegimeReport(valid=not violated, violated=tuple(violated),
                        theta_lo=theta_lo, theta_hi=theta_hi,
                        k1_bound=k1, k2_bound=k2)


@dataclass(frozen=True)
class PlantedCertificateReport:
    """Blockwise certificate (V, W) for a planted instance and the norms the
    optimality system requires: ||V||_inf <= 1, each ||W_block|| <= 1/2,
    and W orthogonal to the solution factors."""

    v: np.ndarray
    w: np.ndarray
    v_inf: float
    w11: float
    w12: float
    w21: float
    w22: float
    wt_u: float
    w_v: float
    passed: bool


def build_planted_certificate(a, model, sol, theta):
    """Assemble the blockwise dual certificate for a solved planted instance.

    Uses lambda* from the solver objective. The (1,1) blocks are the
    rank-one system u1 v1^T + W11 + theta*ones = lambda* A11; off-diagonal
    V blocks are built column-by-column (rows for the transposed side) so
    that W^T u1 and W v1 vanish by construction; V22 is the constant block
    that centers W22. `passed` allows each norm condition a slack of 1e-6.
    """
    am = as_matrix(a)
    if theta <= 0:
        raise ValueError("certificate construction requires theta > 0")
    bm, bn = model.M, model.N
    m, n = am.shape
    if (m, n) != (model.m, model.n):
        raise ValueError("matrix shape disagrees with the model")
    if sol.sigma <= 0:
        raise ValueError("solution must be nonzero")
    if not (set(sol.support_rows) <= set(range(bm))
            and set(sol.support_cols) <= set(range(bn))):
        raise ValueError("solution support exceeds the planted block")
    u1 = np.asarray(sol.u[:bm], dtype=float)
    v1 = np.asarray(sol.v[:bn], dtype=float)
    u1, v1 = _clamp_nonnegative(u1, v1,
                                "solution factors must be nonnegative")

    lam = sol.objective
    a11 = am[:bm, :bn]
    a12 = am[:bm, bn:]
    a21 = am[bm:, :bn]
    a22 = am[bm:, bn:]

    v_mat = np.zeros((m, n))
    v_mat[:bm, :bn] = 1.0
    if n > bn:
        col_scale = lam * (a12.T @ u1) / (theta * u1.sum())
        v_mat[:bm, bn:] = np.broadcast_to(col_scale, (bm, n - bn))
    if m > bm:
        row_scale = lam * (a21 @ v1) / (theta * v1.sum())
        v_mat[bm:, :bn] = np.broadcast_to(row_scale[:, None], (m - bm, bn))
    if m > bm and n > bn:
        v_mat[bm:, bn:] = lam * model.sigma0 * model.c3 / theta

    w_mat = lam * am - theta * v_mat
    w_mat[:bm, :bn] -= np.outer(u1, v1)

    def snorm(block):
        return norm(block, "spectral") if block.size else 0.0

    w11 = snorm(w_mat[:bm, :bn])
    w12 = snorm(w_mat[:bm, bn:])
    w21 = snorm(w_mat[bm:, :bn])
    w22 = snorm(w_mat[bm:, bn:])
    u_full = np.concatenate([u1, np.zeros(m - bm)])
    v_full = np.concatenate([v1, np.zeros(n - bn)])
    wt_u = float(np.linalg.norm(w_mat.T @ u_full))
    w_v = float(np.linalg.norm(w_mat @ v_full))
    v_inf = float(np.abs(v_mat).max())
    tol = 1e-6
    passed = (v_inf <= 1.0 + tol
              and max(w11, w12, w21, w22) <= 0.5 + tol
              and max(wt_u, w_v) <= tol)
    return PlantedCertificateReport(v=v_mat, w=w_mat, v_inf=v_inf,
                                    w11=w11, w12=w12, w21=w21, w22=w22,
                                    wt_u=wt_u, w_v=w_v, passed=passed)


def top_block(a, sol, n_rows, n_cols):
    """Recover a block of known size from a solved instance.

    Ranks rows and columns by the solution's rank-one factors, takes the
    top n_rows/n_cols, then re-ranks once by total weight of `a` inside the
    current selection (stable, factor-weight tie-break). Returns the sorted
    index sets and whether the selected block is entrywise positive (for
    0/1 adjacency data this verifies a complete biclique).
    """
    am = as_matrix(a)
    u = np.abs(np.asarray(sol.u, dtype=float))
    v = np.abs(np.asarray(sol.v, dtype=float))
    if n_rows < 1 or n_cols < 1 or n_rows > am.shape[0] or n_cols > am.shape[1]:
        raise ValueError("requested block size out of range")
    rows = np.argsort(-u, kind="stable")[:n_rows]
    cols = np.argsort(-v, kind="stable")[:n_cols]
    u_eps = 1e-9 / max(float(u.max()), 1e-300)
    v_eps = 1e-9 / max(float(v.max()), 1e-300)
    row_score = am[:, np.sort(cols)].sum(axis=1) + u_eps * u
    rows = np.sort(np.argsort(-row_score, kind="stable")[:n_rows])
    col_score = am[np.sort(rows), :].sum(axis=0) + v_eps * v
    cols = np.sort(np.argsort(-col_score, kind="stable")[:n_cols])
    complete = bool(am[np.ix_(rows, cols)].min() > 0)
    return rows, cols, complete
