"""Greedy nonnegative factorization: repeatedly locate an approximately
rank-one submatrix, refit it by the leading singular pair of that
submatrix, subtract, and clamp the residual at zero."""

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import BlockSelector, _clamp_nonnegative
from .linalg import _scale_exponent, as_matrix
from .solver import ConvergenceError, extract_rank_one, solve


@dataclass(frozen=True)
class NmfResult:
    """Factor pair W H^T accumulated feature by feature.

    Columns of w and h are the zero-padded feature vectors; residual_norms
    holds the Frobenius norm of the residual before and after each round
    (length = number of extracted features + 1).
    """

    w: np.ndarray
    h: np.ndarray
    residual_norms: np.ndarray
    supports: tuple
    requested: int

    @property
    def extracted(self):
        return self.w.shape[1]

    @property
    def short_count(self):
        return self.extracted < self.requested


def residual_update(r, sigma, u, v, block):
    """Subtract the feature sigma*u*v^T on `block` from residual `r` and
    clamp negatives to zero. u and v live on the block's rows/cols."""
    rm = as_matrix(r)
    if rm.min() < 0:
        raise ValueError("residual must be nonnegative")
    block.validate(rm.shape)
    out = rm.copy()
    sub = out[np.ix_(block.rows, block.cols)]
    out[np.ix_(block.rows, block.cols)] = np.maximum(
        sub - sigma * np.outer(u, v), 0.0)
    return out


def greedy_extract(a, p, theta, config):
    """Extract up to `p` rank-one features from nonnegative `a`.

    Each round solves the relaxation on the current residual with the
    settings of `config` at that round's theta (scalar theta is reused; a
    sequence gives a per-round schedule), reads off the support, refits
    the feature as the leading singular pair of the residual restricted to
    the support, subtracts and clamps. Stops early (short count) once the
    residual is numerically zero. Raises ConvergenceError if an inner
    solve fails to converge.
    """
    am = as_matrix(a)
    if am.min() < 0:
        raise ValueError("input must be nonnegative")
    if not am.any():
        raise ValueError("input matrix is zero")
    if p < 1:
        raise ValueError("feature count must be >= 1")
    thetas = [float(theta)] * p if np.isscalar(theta) else [float(t) for t in theta]
    if len(thetas) != p:
        raise ValueError(f"theta schedule has {len(thetas)} entries, expected {p}")

    # ||r||_F taken on r / 2^e, whose sum of squares neither overflows nor
    # underflows at any scale of a; the scaling is exact
    e = _scale_exponent(am)

    def fro(r):
        return math.ldexp(float(np.linalg.norm(np.ldexp(r, -e))), e)

    m, n = am.shape
    resid = am.copy()
    norms = [fro(resid)]
    w_cols, h_cols, supports = [], [], []
    floor = 1e-12 * norms[0]
    for k in range(p):
        if norms[-1] <= floor:
            break
        sol = solve(resid, replace(config, theta=thetas[k]))
        if not sol.converged:
            raise ConvergenceError(
                f"round {k + 1}: solver stopped at iteration {sol.iterations} "
                f"with residuals primal={sol.state.primal_residual:.2e} "
                f"dual={sol.state.dual_residual:.2e} "
                f"certificate={sol.state.cert_residual:.2e}")
        block = BlockSelector(rows=sol.support_rows, cols=sol.support_cols)
        lead = extract_rank_one(resid[np.ix_(block.rows, block.cols)])
        sigma, u, v = lead.sigma, lead.u, lead.v
        # Perron-Frobenius: the leading pair of a nonnegative submatrix is
        # nonnegative; the SVD sign convention realizes it up to roundoff.
        u, v = _clamp_nonnegative(
            u, v, f"round {k + 1}: leading singular pair is not "
            "nonnegative (tied singular values?)")
        root = np.sqrt(sigma)
        w_full = np.zeros(m)
        w_full[block.rows] = root * u
        h_full = np.zeros(n)
        h_full[block.cols] = root * v
        w_cols.append(w_full)
        h_cols.append(h_full)
        supports.append(block)
        resid = residual_update(resid, sigma, u, v, block)
        norms.append(fro(resid))

    # w_cols is not empty: the first round runs (norms[0] > floor) and
    # either raises or appends
    return NmfResult(w=np.column_stack(w_cols), h=np.column_stack(h_cols),
                     residual_norms=np.array(norms), supports=tuple(supports),
                     requested=p)
