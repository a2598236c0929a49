"""Convex solver for the rank-one submatrix relaxation.

Minimizes ||X||_* + theta*||X||_1 subject to <A, X> >= 1 by relaxed
Douglas-Rachford splitting of two operators: the nuclear norm, whose
proximal map is singular value thresholding, and the l1 term together
with the halfspace, whose proximal map is a soft threshold shifted along A
by a multiplier found as the root of a piecewise-linear function. The l1
multiplier yields an optimality certificate (a decomposition A = Y + Z
balancing the spectral and scaled-linf norms) that is checked at stopping
time and exposed to callers.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (_check_theta, _gram_singular_values, _l1_prox,
                     _nuclear_prox, _scale_exponent, _support_svd, as_matrix)


# Entries per row block of the solver's passes. A pass touches at most six
# block-sized arrays, 0.8 MB at 2^14 doubles: within a 2 MB per-core L2
# cache. The nuclear prox output adds only its factors.
_BLOCK_ENTRIES = 2 ** 14
# The root find of prox_g stops at |h - 1| <= _ROOT_TOL, at a repeated mu,
# or after _ROOT_PASSES passes.
_ROOT_TOL = 4 * np.finfo(float).eps
_ROOT_PASSES = 64
# Relaxation of the Douglas-Rachford step, z += _RELAX (x2 - x1), in
# (0, 2) (Eckstein-Bertsekas 1992). Without it (1.0) the step leaves a
# singular value of z that was above 1/rho exactly at 1/rho, so the dual
# certificate Y ends with sigma_2 tied to sigma_1 and the uniqueness
# diagnostic reads non-unique on problems whose optimal dual set has
# untied points; the overshoot of 1.3 lands strictly below the threshold.
_RELAX = 1.3
# The stopping test is read, and its sums are taken, at the iterations of
# _EARLY_CHECKS, at every multiple of _CHECK_EVERY and at max_iters. The
# certificate is checked there where the primal and dual residuals pass (a
# failing one could not stop the solve), and always at max_iters. The early
# tests let a well-conditioned solve stop near where it certifies: planted
# 480 x 480 (block 160, c3 = 0.1, tol 1e-7) certifies at 16 on most seeds
# (and passes r and s there first) and by 24 on the rest (README). A solve
# that runs longer pays three more passes of sums, and a certificate check
# only where r and s already pass.
_EARLY_CHECKS = (8, 16, 24)
_CHECK_EVERY = 25
# rho = _PENALTY ||A||_F; the nuclear prox thresholds at 1/rho. 1.5 rather
# than 1.0: on held-out biclique draws 1.0 lost certificates that 1.5 keeps
# (README).
_PENALTY = 1.5
# The support of a solution keeps the rows and columns whose largest entry
# magnitude exceeds _SUPPORT_TOL ||X||_inf.
_SUPPORT_TOL = 1e-6
# The interior-point polish (_polish) of a dual-degenerate solve, whose
# residuals decay as 1/k. It runs once, at the stopping test of iteration
# _POLISH_AT (it and _POLISH_AT // 2 are multiples of _CHECK_EVERY), on a
# solve with theta > 0 and at most _POLISH_MAX_ENTRIES entries that has not
# stopped there, and whose primal residual there is at least _POLISH_PLATEAU
# times that at _POLISH_AT // 2 (1/k decay reads 0.5). On c04's 100
# matrices (15 x 15, rng 40, theta 1.5, cap 15000) it fires on the 21 that
# reach the cap and on one that certifies by splitting at 12475 (#69); every
# other certifier stops by 5375. At 800 it would also fire on four more
# certifiers (#3, 36, 79, 98), and at 1013 or before on #3, which the
# history tests pin as capped at 1013.
_POLISH_AT = 1600
_POLISH_PLATEAU = 0.2
# The polish solves a dense (mn + 1)^2 Schur complement twice per step.
# One polish of a random uniform matrix at theta 1.5 (one BLAS thread,
# 2-core Xeon) costs 26 ms at 10 x 10, 73 ms at 15 x 15, 0.27 s at
# 20 x 20, 1.2 s at 30 x 30 and 2.1 s at 30 x 40, against 1600 splitting
# iterations of 0.08 s at 15 x 15 and 0.2 s at 20 x 20: up to 400 entries
# it costs about what the splitting has spent by _POLISH_AT, and its
# Schur complement is 1.3 MB.
_POLISH_MAX_ENTRIES = 400
# The polish stops once its report passes at _POLISH_MARGIN tol_gap, and
# after _POLISH_STEPS steps at most. On the 21 capped c04 solves it passed
# 1e-9 after 17-24 steps; its precision floor lies near 1e-11, where the
# step lengths collapse.
_POLISH_MARGIN = 0.1
_POLISH_STEPS = 50
# the report's value for a residual beyond the float range
_FLOAT_MAX = float(np.finfo(float).max)


class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested tolerances."""


@dataclass(frozen=True)
class SolverConfig:
    theta: float
    max_iters: int = 50000
    tol_primal: float = 1e-8      # ||x1 - x2|| / ||x2||
    tol_dual: float = 1e-8        # drift of x2 per iteration, relative
    tol_gap: float = 1e-8         # check_optimality max_residual

    def __post_init__(self):
        _check_theta(self.theta)
        v = self.max_iters
        if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {v!r}")
        for name in ("tol_primal", "tol_dual", "tol_gap"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


@dataclass(frozen=True)
class DualCertificate:
    """Decomposition A = Y + Z certifying (near-)optimality, with what the
    solver measured on Y and Z.

    dual_norm is the certificate's own dual value max{||Y||, ||Z||_inf/theta};
    at optimality it equals the dual norm of A. The diagnostics spectral_gap
    (sigma_1 - sigma_2 of Y) and linf_argmax_count (multiplicity of the
    entrywise max of |Z|) indicate, without proving, whether the primal
    optimizer is unique; they default to 0, as in a certificate file
    written without them. The norms of a candidate X are not stored:
    `check_optimality` takes them from X.

    These fields are the certificate file's schema (`laros.mmio`).
    """

    y: np.ndarray
    z: np.ndarray
    dual_norm: float
    spectral_gap: float = 0.0
    linf_argmax_count: int = 0


@dataclass(frozen=True)
class OptimalityReport:
    """Residuals of the optimality system for a scaled candidate X.

    balance, nuclear_alignment, l1_alignment and gap are relative to the
    certificate's dual value; normalization and decomposition are
    dimensionless. All small (<= tol) certifies optimality.
    """

    balance: float            # | ||Y|| - ||Z||_inf/theta |
    nuclear_alignment: float  # | <X,Y> - ||X||_* ||Y|| |
    l1_alignment: float       # | <X,Z> - ||X||_1 ||Z||_inf |
    normalization: float      # | ||X||_theta - 1 |
    decomposition: float      # ||Y + Z - A||_F / ||A||_F
    gap: float                # weak-duality slack, >= 0

    @property
    def max_residual(self):
        """The largest residual; NaN if any residual is NaN."""
        residuals = (self.balance, self.nuclear_alignment, self.l1_alignment,
                     self.normalization, self.decomposition, self.gap)
        # Python's max skips a NaN that is not its first argument
        if any(map(math.isnan, residuals)):
            return math.nan
        return max(residuals)

    def passed(self, tol):
        return self.max_residual <= tol


@dataclass(frozen=True)
class RankOneParts:
    """Leading singular triple and support index sets of a matrix."""

    sigma: float
    u: np.ndarray
    v: np.ndarray
    rows: np.ndarray          # 0-based, sorted
    cols: np.ndarray


@dataclass
class Solution:
    """Optimizer of the constrained problem, <A, X> = 1 normalization, with
    the residuals of the solve's last stopping test, cert_residual the
    max_residual of its last check, and the certificate built there.

    `scaled()` returns the unit-theta-norm variant X / objective.
    """

    x: np.ndarray
    sigma: float
    u: np.ndarray
    v: np.ndarray
    support_rows: np.ndarray
    support_cols: np.ndarray
    objective: float          # ||X||_theta at the optimum
    gap: float                # gap of the check_optimality report
    iterations: int
    # "converged": the splitting certified at a stopping test; "polished":
    # the interior-point polish did, at the stopping test of `iterations`;
    # "max_iters": neither, by max_iters
    stop_reason: str
    non_unique: bool
    theta: float
    primal_residual: float
    dual_residual: float
    cert_residual: float
    certificate: DualCertificate
    # one dict per stopping test, in order: iteration, primal_residual,
    # dual_residual and step, ||z+ - z|| in the units of a, which relaxed
    # Douglas-Rachford keeps nonincreasing; where the test checked the
    # certificate, also cert_residual (the check's max_residual) and
    # weak_duality_slack (dual - 1/objective in the units of a)
    history: list

    @property
    def converged(self):
        """Whether the returned certificate passed at tol_gap: read from
        stop_reason, so the two cannot disagree."""
        return self.stop_reason != "max_iters"

    @property
    def state(self):
        """This solution, for the benchmark's `recover_dual(a, theta,
        sol.state)`: its only reader until ROADMAP item 2 moves the bench."""
        return self

    def scaled(self):
        return self.x / self.objective


def extract_rank_one(x):
    """Leading singular triple of `x` plus row/column support sets.

    Support keeps indices whose largest entry magnitude exceeds
    _SUPPORT_TOL * ||x||_inf. A zero matrix yields sigma 0 and empty sets.
    """
    xm = as_matrix(x)
    if not xm.any():
        return RankOneParts(0.0, np.zeros(xm.shape[0]), np.zeros(xm.shape[1]),
                            np.array([], dtype=int), np.array([], dtype=int))
    return _rank_one_parts(xm, _support_svd(xm))


def _rank_one_parts(xm, factors):
    """RankOneParts of a nonzero `xm` from its thin SVD (u, s, vt) or
    `_support_svd`. The leading pair (u, v) is negated where the
    largest-magnitude component of u (the first such index on ties) is
    negative, so that component is nonnegative."""
    u, s, vt = factors
    u0, v0 = u[:, 0], vt[0]
    if u0[np.argmax(np.abs(u0))] < 0:
        u0, v0 = -u0, -v0
    # + 0.0: the zeros off the support read 0.0 whichever sign the pair took
    u0, v0 = u0 + 0.0, v0 + 0.0
    mag = np.abs(xm)
    cutoff = _SUPPORT_TOL * mag.max()
    rows = np.flatnonzero(mag.max(axis=1) > cutoff)
    cols = np.flatnonzero(mag.max(axis=0) > cutoff)
    return RankOneParts(float(s[0]), u0, v0, rows, cols)


class _Check(NamedTuple):
    """Certificate pieces at one iterate, from one certificate check."""

    x_rep: np.ndarray         # candidate normalized to <A, x_rep> = 1
    fx: tuple                 # _support_svd (u, s, vt) of x_rep
    lam: float                # ||x_rep||_theta
    y: np.ndarray
    z: np.ndarray
    sy: np.ndarray            # singular values of y, nonincreasing
    dual: float               # max{||Y||, ||Z||_inf/theta}
    report: OptimalityReport  # of x_rep / lam, the scaled candidate

    @property
    def spectral_gap(self):
        """sigma_1 - sigma_2 of y (sigma_1 if y has one singular value)."""
        sy = self.sy
        return float(sy[0] - sy[1]) if sy.size > 1 else float(sy[0])


def _check(a, theta, x2, g2):
    """Certificate A = Y + Z at the current iterate and its report.

    x2 = prox_g(w) is the soft threshold of w + mu A, so <A, x2> = 1 up to
    rounding (or more, where mu = 0; solve raises instead of checking where
    the root find stopped short, at <A, x2> <= 0), and g2 =
    rho*(w + mu A - x2) is its l1 multiplier, an exact subgradient of
    theta*||.||_1 at x2. So Z = g2/objective, formed in the memory of g2,
    satisfies its norm bound and alignment exactly; all convergence error
    lands in Y. The SVD of the candidate, with vectors and taken on its
    support, also serves the solution's rank-one parts. The report is the
    one `check_optimality` makes of the solution and certificate.
    """
    x_rep, fx, lam = _normalized(a, theta, x2)
    z = np.divide(g2, lam, out=g2)
    return _score(a, theta, x_rep, fx, lam, a - z, z)


def _normalized(a, theta, x):
    """x scaled to <A, x_rep> = 1, the _support_svd of x_rep and
    ||x_rep||_theta."""
    x_rep = x / float(np.vdot(a, x))
    fx = _support_svd(x_rep)
    return x_rep, fx, float(np.sum(fx[1])) + theta * float(np.abs(x_rep).sum())


def _score(a, theta, x_rep, fx, lam, y, z):
    """The _Check of the candidate x_rep (with its _support_svd fx and
    theta-norm lam) and the certificate (y, z), on a / 2^e as `solve`
    scales it; y and z become the check's."""
    # only sigma_1 and sigma_2 are read: sigma_2 to a few ulps of sigma_1
    # near a tie, the one place where the uniqueness test on the gap
    # sigma_1 - sigma_2 reads it closely. Y is of the scale of a / 2^e,
    # whose entries lie in (-1, 1), so its Gram matrix cannot overflow.
    sy = _gram_singular_values(y)
    ny, nz = float(sy[0]), float(np.abs(z).max())
    xs = x_rep / lam
    return _Check(x_rep, fx, lam, y, z, sy, _dual_value(ny, nz, theta),
                  _report(theta, xs, float(np.sum(fx[1])) / lam,
                          float(np.abs(xs).sum()), a, y, z, ny, nz,
                          float(np.linalg.norm(a)), 0))


def _dual_certificate(chk, e):
    """The DualCertificate of a check run on A / 2^e, in the units of A:
    Y, Z, the dual norm and the spectral gap scale by 2^e, in place for
    the check's arrays; linf_argmax_count counts the entries of |Z| within
    1e-8 relative of its maximum."""
    zabs = np.abs(chk.z)
    zmax = float(zabs.max())
    ties = int(np.sum(zabs >= zmax * (1.0 - 1e-8))) if zmax > 0 else 0
    return DualCertificate(
        y=np.ldexp(chk.y, e, out=chk.y), z=np.ldexp(chk.z, e, out=chk.z),
        dual_norm=math.ldexp(chk.dual, e),
        spectral_gap=math.ldexp(chk.spectral_gap, e),
        linf_argmax_count=ties)


def _lmi(d, off):
    """[[d I, off], [off^T, d I]]."""
    m, n = off.shape
    s = np.zeros((m + n, m + n))
    s[:m, m:] = off
    s[m:, :m] = off.T
    s.flat[::m + n + 1] = d
    return s


def _psd_step(l_inv, dx):
    """The largest alpha (inf if none bounds it) with X + alpha dX positive
    semidefinite, from the inverse l_inv of X's Cholesky factor."""
    low = float(np.linalg.eigvalsh(l_inv @ dx @ l_inv.T)[0])
    return -1.0 / low if low < 0.0 else math.inf


def _ratio_step(v, dv):
    """The largest alpha (inf if none bounds it) with v + alpha dv >= 0."""
    neg = dv < 0.0
    return float(np.min(v[neg] / -dv[neg])) if neg.any() else math.inf


def _hkm_schur(w, g, dp, dm, theta):
    """The Schur complement of the HKM step in (d, Y), row-major Y: entry
    (i, j) is <A_i, W A_j S^-1> over the coefficients A_i of the LMI, plus
    the bounds' b_i^T diag(D) b_j, with g = S^-1 and the ratios
    dp = u+ / s+, dm = u- / s-. It is symmetric positive definite."""
    m, n = dp.shape
    p = m * n
    out = np.empty((p + 1, p + 1))
    zz = out[1:, 1:].reshape(m, n, m, n)
    w11, w12, w22 = w[:m, :m], w[:m, m:], w[m:, m:]
    g11, g12, g22 = g[:m, :m], g[:m, m:], g[m:, m:]
    # entry (ij, kl): G11_ik W22_jl + W11_ik G22_jl + G12_il W12_kj +
    # W12_il G12_kj, the four products of the blocks of W and S^-1
    np.einsum("sik,sjl->ijkl", np.stack((g11, w11)), np.stack((w22, g22)),
              out=zz)
    zz += np.einsum("sil,skj->ijkl", np.stack((g12, w12)),
                    np.stack((w12, g12)))
    diag = np.arange(1, p + 1)
    out[diag, diag] += (dp + dm).ravel()
    gw = g @ w
    row = (theta * (dp - dm) + gw[:m, m:] + gw[m:, :m].T).ravel()
    out[0, 1:] = row
    out[1:, 0] = row
    out[0, 0] = float(np.vdot(g, w)) + theta * theta * float((dp + dm).sum())
    return out


def _polish(a, theta, tol):
    """Interior-point solve of the dual problem on a, scaled as in `solve`
    (theta > 0), with the candidate of each step scored as a certificate
    check.

    The dual is min d subject to S = [[d I, Y], [Y^T, d I]] >= 0 (positive
    semidefinite) and s+/- = theta d -/+ Z >= 0, Z = A - Y: at the
    optimum, d = max{||Y||, ||Z||_inf / theta} is the dual norm of A. Y,
    not Z, is the unknown, so that Y carries no rounding of A - Z: on the
    15 x 15 uniform rng-3 matrix at theta 1e12, where Y is about 1e-12 of
    A, that rounding left the balance residual at 4e-5, and 1.9e-10
    without it. The conic dual is max <A, X> subject to
    ||X||_theta <= 1, with X = u+ - u- read off the multipliers u+/- of
    the bounds; with the multiplier W of the LMI,
    tr W + theta sum(u+ + u-) = 1 and 2 W_12 = u- - u+. The steps follow
    the HKM direction (Helmberg-Rendl-Vanderbei-Wolkowicz 1996) with
    Mehrotra's predictor-corrector, from Y = A, d = 2 ||A||_F, W = I / nu
    and u+/- = 1 / (theta nu), nu = m + n + 2mn: feasible for both
    problems, and centred up to the off-diagonal of S. The Schur
    complement of the mn + 1 unknowns (d, Y) is dense and solved by LU
    (np.linalg.solve; its inverse lost up to two digits).

    Returns (check, steps): the _Check of the best-scoring candidate (None
    if no step had <A, X> > 0), and the steps taken. Stops where the
    report passes at _POLISH_MARGIN tol, or after _POLISH_STEPS steps. A
    factorization that fails raises LinAlgError.
    """
    m, n = a.shape
    nu = m + n + 2 * m * n
    d, y = 2.0 * float(np.linalg.norm(a)), a.copy()
    w = np.eye(m + n) / nu
    up = np.full_like(a, 1.0 / (theta * nu))
    um = up.copy()
    best, steps = None, 0
    for steps in range(1, _POLISH_STEPS + 1):
        s = _lmi(d, y)
        sp, sm = theta * d - a + y, theta * d + a - y
        if not (sp.min() > 0.0 and sm.min() > 0.0):
            break   # a bound met in rounding: no interior step is left
        ls_inv = np.linalg.inv(np.linalg.cholesky(s))
        lw_inv = np.linalg.inv(np.linalg.cholesky(w))
        g = ls_inv.T @ ls_inv
        mu = (float(np.vdot(w, s)) + float(np.vdot(up, sp))
              + float(np.vdot(um, sm))) / nu
        if not mu > 0.0:
            break
        schur = _hkm_schur(w, g, up / sp, um / sm, theta)
        # the primal residual b - A(W, u), zero up to rounding
        r0 = float(np.trace(w)) + theta * float((up + um).sum()) - 1.0
        ry = w[:m, m:] + w[m:, :m].T + up - um

        def direction(cw, cp, cm):
            """The step (dd, dY, dS, ds+, ds-, dW, du+, du-) whose
            complementarity rows read dW + H(W dS S^-1) = cw and
            du + u ds / s = c, for the bounds."""
            rhs = np.empty(m * n + 1)
            rhs[0] = r0 + float(np.trace(cw)) + theta * float((cp + cm).sum())
            rhs[1:] = (ry + cw[:m, m:] + cw[m:, :m].T + cp - cm).ravel()
            step = np.linalg.solve(schur, rhs)
            dd, dy = float(step[0]), step[1:].reshape(m, n)
            ds = _lmi(dd, dy)
            dsp, dsm = theta * dd + dy, theta * dd - dy
            t = w @ ds @ g
            return (dd, dy, ds, dsp, dsm, cw - 0.5 * (t + t.T),
                    cp - up * dsp / sp, cm - um * dsm / sm)

        def lengths(dw, dup, dum, ds, dsp, dsm):
            """The largest primal and dual steps that keep the iterate in
            the cone."""
            return (min(_psd_step(lw_inv, dw), _ratio_step(up, dup),
                        _ratio_step(um, dum)),
                    min(_psd_step(ls_inv, ds), _ratio_step(sp, dsp),
                        _ratio_step(sm, dsm)))

        # predictor: the affine step, toward mu = 0
        dd, dy, ds, dsp, dsm, dw, dup, dum = direction(-w, -up, -um)
        ap, ad = (min(1.0, t) for t in lengths(dw, dup, dum, ds, dsp, dsm))
        mu_aff = (float(np.vdot(w + ap * dw, s + ad * ds))
                  + float(np.vdot(up + ap * dup, sp + ad * dsp))
                  + float(np.vdot(um + ap * dum, sm + ad * dsm))) / nu
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
        # corrector: toward sigma mu, with the predictor's second-order term
        t = dw @ ds @ g
        dd, dy, ds, dsp, dsm, dw, dup, dum = direction(
            sigma * mu * g - w - 0.5 * (t + t.T),
            (sigma * mu - dup * dsp) / sp - up,
            (sigma * mu - dum * dsm) / sm - um)
        ap, ad = lengths(dw, dup, dum, ds, dsp, dsm)
        gamma = 0.9 + 0.09 * min(1.0, ap, ad)
        ap, ad = min(1.0, gamma * ap), min(1.0, gamma * ad)
        w = w + ap * dw
        up, um = up + ap * dup, um + ap * dum
        d, y = d + ad * dd, y + ad * dy

        x = up - um
        if float(np.vdot(a, x)) > 0.0:
            chk = _score(a, theta, *_normalized(a, theta, x), y.copy(),
                         a - y)
            if (best is None or chk.report.max_residual
                    < best.report.max_residual):
                best = chk
            if best.report.passed(_POLISH_MARGIN * tol):
                break
    return best, steps


class _GProx:
    """prox_g for g(X) = theta*||X||_1 + indicator{<A, X> >= 1} at penalty
    rho, over row blocks of A that stay in cache.

    prox_g(w) = soft(w + mu A, t) with t = theta/rho, where mu >= 0 is the
    root of h(mu) = <A, soft(w + mu A, t)> = 1, and mu = 0 when
    h(0) >= 1. h is nondecreasing and piecewise linear in mu, with slope
    the sum of A_ij^2 over the entries above the threshold, so a Newton
    step with the slope of the current piece is exact unless an entry
    crosses its threshold. The slope is not summed: each root find starts
    from the previous iteration's mu and the secant slope of its last two
    passes, which is exact while the active set holds; later steps take
    the secant of their own last two passes and bisect where a step
    leaves the bracket. A pass writes soft(w + mu A, t) into x2 and adds
    _RELAX times it to the state, and the next pass takes that back out,
    so a pass that misses the root costs only its own time.
    """

    def __init__(self, a, t):
        m, n = a.shape
        rows = min(m, max(1, _BLOCK_ENTRIES // n))
        self.a, self.t = a, t
        self.blocks = []               # (rows, scratch, scratch)
        buf = np.empty((2, rows, n))
        for i in range(0, m, rows):
            end = min(i + rows, m)
            self.blocks.append((slice(i, end), buf[0, :end - i],
                                buf[1, :end - i]))
        self.mu = 0.0
        # the largest slope h can have, so the first step stays below
        # the root
        self.slope = float(np.vdot(a, a))

    def h(self, b, w, mu, s, out):
        """soft(w + mu A, t) of row block b into out, and its share of
        h(mu); s is scratch."""
        ab = self.a[b]
        if mu:
            w = np.add(w, np.multiply(ab, mu, out=s), out=s)
        _l1_prox(w, self.t, out=out)
        return float(np.vdot(ab, out))

    def _pass(self, w, x2, z, mu, undo):
        """x2 = soft(w + mu A, t), with _RELAX x2 added to z after taking
        out that of the previous pass (with undo); returns h(mu)."""
        h = 0.0
        for b, s, _ in self.blocks:
            xb, zb = x2[b], z[b]
            if undo:
                np.subtract(zb, np.multiply(xb, _RELAX, out=s), out=zb)
            h += self.h(b, w[b], mu, s, xb)
            np.add(zb, np.multiply(xb, _RELAX, out=s), out=zb)
        return h

    def __call__(self, w, x2, z, h):
        """Writes prox_g(w) into x2 and adds _RELAX times it to z, given
        h(self.mu), and moves self.mu to the root; returns h there."""
        mu, slope = self.mu, self.slope
        lo, hi = 0.0, math.inf         # h(lo) < 1 <= h(hi) once evaluated
        at_lo = written = False
        for _ in range(_ROOT_PASSES):
            if h < 1.0:
                lo, at_lo = mu, True
            else:
                hi = mu
            if abs(h - 1.0) <= _ROOT_TOL or (mu == 0.0 and h >= 1.0):
                nxt = mu
            else:
                nxt = max(mu + (1.0 - h) / slope, 0.0)
                if nxt != mu and not (lo < nxt < hi
                                      or (nxt == 0.0 and not at_lo)):
                    # the step left the bracket, so hi is finite: bisect,
                    # unless no float lies between the ends
                    nxt = 0.5 * (lo + hi)
                    if nxt in (lo, hi):
                        nxt = mu
            if nxt == mu and written:
                break
            h_next = self._pass(w, x2, z, nxt, written)
            written = True
            if nxt != mu:
                step = (h_next - h) / (nxt - mu)
                # on a flat piece, double the next step
                slope = step if step > 0.0 else 0.5 * slope
            mu, h = nxt, h_next
        self.mu, self.slope = mu, slope
        return h


def solve(a, config):
    """Minimize ||X||_* + theta*||X||_1 subject to <a, X> >= 1.

    Relaxed Douglas-Rachford splitting of two operators, f = ||X||_* and
    g = theta*||X||_1 + indicator{<a, X> >= 1}, on one state z:
    x1 = prox_f(z) by singular value thresholding, w = 2 x1 - z,
    x2 = prox_g(w) by a soft threshold whose halfspace multiplier is found
    by a one-dimensional root find (_GProx), and z += _RELAX (x2 - x1).
    Stops at the first stopping test (iterations 8, 16 and 24, every 25th
    and max_iters) where ||x1 - x2|| and the drift of x2 fall below
    tol_primal and tol_dual and the `check_optimality` report of the
    iterate passes at tol_gap (stop_reason "converged"); the solution's
    gap and cert_residual are its gap and max_residual.

    On a small problem whose residuals decay as 1/k (a dual-degenerate
    one), the stopping test at iteration _POLISH_AT (1600) runs an
    interior-point solve of the dual (_polish) once. If its candidate and
    certificate pass the same report at tol_gap, the solve stops there
    with them (stop_reason "polished"); otherwise, or where the polish
    fails to factor a matrix, the splitting goes on as if it had not run.
    At max_iters without either, the final iterate is returned with
    converged=False (stop_reason "max_iters"). In every case the dual
    certificate is the one checked last, and converged=True means that it
    passed at tol_gap. Every stopping test is recorded in history.

    The problem is homogeneous in a: the splitting runs on a / 2^e, with
    ||a / 2^e||_inf in [0.5, 1) (`_scale_exponent`), where ||a||_F^2 and
    the iterates neither overflow nor underflow for any scale of a. The
    scaling is exact, so X, the objective and the certificate are mapped
    back exactly on exit.
    """
    am = as_matrix(a)
    if not am.any():
        raise ValueError("input matrix must be nonzero")
    theta = config.theta
    e = _scale_exponent(am)
    # every work array is C-ordered whatever the layout of the input, so
    # the results are too
    a = np.ascontiguousarray(np.ldexp(am, -e))
    nf = float(np.linalg.norm(a))
    rho = _PENALTY * nf
    nuclear_prox = _nuclear_prox(a.shape)
    prox_g = _GProx(a, theta / rho)
    blocks = prox_g.blocks

    # the state z and, for the drift of x2, the last two x2
    z = a / (nf * nf)
    w = np.empty_like(a)
    x2, x2_prev = np.zeros_like(a), np.zeros_like(a)

    history = []
    stop_reason = "max_iters"
    polishable = theta > 0 and a.size <= _POLISH_MAX_ENTRIES
    r_half = math.inf    # the primal residual at iteration _POLISH_AT // 2

    def record(entry, chk):
        # dual - 1/lam in the units of am: the dual scales by 2^e
        entry.update(cert_residual=chk.report.max_residual,
                     weak_duality_slack=math.ldexp(chk.dual - 1.0 / chk.lam,
                                                   e))

    # the loop always checks at k == max_iters and stops only right after
    # a passing check, so the last check is always of the returned iterate
    for k in range(1, config.max_iters + 1):
        left, right = nuclear_prox(z, 1.0 / rho)
        x2, x2_prev = x2_prev, x2
        # per row block: x1 = left @ right, w = 2 x1 - z, z -= _RELAX x1,
        # and h at the previous root, the first value of the root find
        h = 0.0
        for b, s, x1 in blocks:
            zb, wb = z[b], w[b]
            np.dot(left[b], right, out=x1)
            np.subtract(zb, x1, out=zb)
            np.subtract(x1, zb, out=wb)
            np.subtract(zb, np.multiply(x1, _RELAX - 1.0, out=x1), out=zb)
            h += prox_g.h(b, wb, prox_g.mu, s, x1)
        if not math.isfinite(h):
            # the kernels do not validate; a non-finite entry of x1 reaches
            # h through w, also where A is zero (0 * NaN and 0 * inf are
            # NaN)
            raise ValueError(f"solver iterate is not finite at iteration {k}")
        h = prox_g(w, x2, z, h)
        if (k % _CHECK_EVERY and k not in _EARLY_CHECKS
                and k != config.max_iters):
            continue
        # x1 formed again as in the first pass, so that x2 - x1 is not
        # read off z, where it would cancel against z's larger entries
        rr = ss = nn = 0.0
        for b, s, x1 in blocks:
            xb = x2[b]
            np.subtract(xb, np.dot(left[b], right, out=x1), out=s)
            rr += float(np.vdot(s, s))
            np.subtract(xb, x2_prev[b], out=s)
            ss += float(np.vdot(s, s))
            nn += float(np.vdot(xb, xb))
        r = math.sqrt(rr)
        scale = max(math.sqrt(nn), 1e-300)
        r_rel = r / scale
        s_rel = math.sqrt(ss) / scale
        # the step ||z+ - z|| = _RELAX ||x2 - x1|| in the units of am: X
        # scales by 2^-e
        entry = {"iteration": k, "primal_residual": r_rel,
                 "dual_residual": s_rel, "step": math.ldexp(_RELAX * r, -e)}
        history.append(entry)
        if k == _POLISH_AT // 2:
            r_half = r_rel
        can_stop = r_rel <= config.tol_primal and s_rel <= config.tol_dual
        if can_stop or k == config.max_iters:
            if h <= 0.0:
                # the root find stopped on the flat piece h = 0 below the
                # first breakpoint (out of passes, or at a step below one
                # ulp of mu): at a large theta that breakpoint lies beyond
                # its reach
                raise ValueError(
                    f"theta={theta} is too large for this matrix: at "
                    f"iteration {k} the halfspace multiplier search ended "
                    f"at <A, X> = {h}")
            # the l1 multiplier rho (w + mu A - x2) of the loop's own x2
            g2 = np.multiply(a, prox_g.mu)
            g2 += w
            g2 -= x2
            chk = _check(a, theta, x2, np.multiply(g2, rho, out=g2))
            record(entry, chk)
            if can_stop and chk.report.passed(config.tol_gap):
                stop_reason = "converged"
                break
        if (k == _POLISH_AT and k < config.max_iters and polishable
                and r_rel >= _POLISH_PLATEAU * r_half):
            try:
                polished, steps = _polish(a, theta, config.tol_gap)
            except np.linalg.LinAlgError:
                continue    # a factorization failed: the splitting goes on
            entry["polish_steps"] = steps
            if polished is not None:
                record(entry, polished)
                if polished.report.passed(config.tol_gap):
                    chk, stop_reason = polished, "polished"
                    break

    cert = _dual_certificate(chk, e)
    lam, report = chk.lam, chk.report
    parts = _rank_one_parts(chk.x_rep, chk.fx)
    unique_spectral = chk.spectral_gap > 1e-8 * max(float(chk.sy[0]), 1e-300)
    unique_linf = theta > 0 and cert.linf_argmax_count == 1
    return Solution(x=np.ldexp(chk.x_rep, -e, out=chk.x_rep),
                    sigma=math.ldexp(parts.sigma, -e), u=parts.u, v=parts.v,
                    support_rows=parts.rows, support_cols=parts.cols,
                    objective=math.ldexp(lam, -e), gap=report.gap,
                    iterations=k, stop_reason=stop_reason,
                    non_unique=not (unique_spectral or unique_linf),
                    theta=theta, primal_residual=r_rel, dual_residual=s_rel,
                    cert_residual=report.max_residual, certificate=cert,
                    history=history)


def recover_dual(a, theta, sol):
    """sol.certificate, the dual certificate (Y, Z and their measurements)
    of a converged solve, after checks; kept for the benchmark.

    Y + Z = a holds exactly by construction. Raises ValueError if the
    solve did not converge (read from sol.stop_reason) or solved another
    problem.
    """
    am = as_matrix(a)
    if not sol.converged:
        raise ValueError(
            "certificate requires a converged solve "
            f"(stopped after {sol.iterations} iterations)")
    if am.shape != sol.certificate.y.shape or theta != sol.theta:
        raise ValueError("solution does not match the given problem")
    return sol.certificate


def _dual_value(ny, nz, theta):
    """max{||Y||, ||Z||_inf/theta} from ny and nz; ||Y|| at theta = 0."""
    return max(ny, nz / theta) if theta > 0 else ny


def _report(theta, x, nuc_x, l1_x, a, y, z, ny, nz, nf, shift):
    """The OptimalityReport of a theta-norm-1 candidate `x`, with its
    nuclear and l1 norms, for the certificate A = Y + Z: `a`, `y` and `z`
    under one exact scaling 2^e, with ny = ||Y|| and nz = ||Z||_inf at that
    scale, and nf = ||A||_F at A's own scale 2^(e - shift), shift >= 0,
    where it cannot underflow as A / 2^e can beside a far larger Y or Z.
    Every residual is relative, so it reads as in the units of A; a
    decomposition residual beyond the float range reads the largest
    double, which fails as inf would but stays a JSON number.
    """
    dual = _dual_value(ny, nz, theta)
    tiny = float(np.finfo(float).tiny)  # for an all-zero certificate
    scale = max(dual, tiny)
    try:
        decomposition = min(math.ldexp(float(np.linalg.norm(y + z - a))
                                       / max(nf, tiny), shift), _FLOAT_MAX)
    except OverflowError:
        decomposition = _FLOAT_MAX
    return OptimalityReport(
        balance=(abs(ny - nz / theta) if theta > 0 else nz) / scale,
        nuclear_alignment=abs(float(np.vdot(x, y)) - nuc_x * ny) / scale,
        l1_alignment=abs(float(np.vdot(x, z)) - l1_x * nz) / scale,
        normalization=abs(nuc_x + theta * l1_x - 1.0),
        decomposition=decomposition,
        gap=max(0.0, dual - float(np.vdot(a, x))) / scale)


def check_optimality(a, theta, x, cert):
    """Residual report for a scaled candidate `x` (theta-norm 1) and its
    certificate. Report-only: never raises on violated conditions.

    Conditions, read from a, x, cert.y and cert.z alone: (balance) the
    certificate's two norms agree; (alignment) x lies in the scaled
    subdifferentials of ||Y|| and ||Z||_inf; (normalization)
    ||x||_theta = 1; (decomposition) Y + Z = A; (gap) weak duality,
    max{||Y||, ||Z||_inf/theta} - <A, x> relative to that dual value. At
    theta = 0 the balance residual degenerates to ||Z||_inf, which must
    vanish. `solve` stops on this report. Raises ValueError on a theta
    that is negative or not finite, or an x, cert.y or cert.z not of a's
    shape.
    """
    _check_theta(theta)
    am = as_matrix(a)
    xm = as_matrix(x)
    y, z = as_matrix(cert.y), as_matrix(cert.z)
    for name, value in (("x", xm), ("cert.y", y), ("cert.z", z)):
        if value.shape != am.shape:
            raise ValueError(f"{name} has shape {value.shape}, expected "
                             f"{am.shape} (the shape of a)")
    # a, Y and Z at one exact scale, with entries in (-1, 1): the Gram
    # matrix of Y and the squares of ||A||_F cannot overflow; ||A||_F is
    # taken at A's own scale, where it cannot underflow either
    ea = _scale_exponent(am)
    e = max(ea, _scale_exponent(y), _scale_exponent(z))
    nf = float(np.linalg.norm(np.ldexp(am, -ea)))
    am, y, z = (np.ldexp(m, -e) for m in (am, y, z))
    nuc_x = float(np.sum(_support_svd(xm, compute_uv=False)))
    return _report(theta, xm, nuc_x, float(np.abs(xm).sum()), am, y, z,
                   float(_gram_singular_values(y)[0]),
                   float(np.abs(z).max()), nf, e - ea)
