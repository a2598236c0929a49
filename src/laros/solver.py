"""Convex solver for the rank-one submatrix relaxation.

Minimizes ||X||_* + theta*||X||_1 subject to <A, X> >= 1 by consensus
splitting over three copies of X, one per term, each updated by its
closed-form proximal map. Dual multipliers yield an optimality certificate
(a decomposition A = Y + Z balancing the spectral and scaled-linf norms)
that is checked at stopping time and exposed to callers.
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .linalg import (_l1_prox, _nuclear_prox, _signed_pairs,
                     _soft_threshold, _support_svd, as_matrix, norm)


# Entries per row block of the solver's fused consensus pass. Ten
# block-sized arrays are live in one block, 1.3 MB at 2^14 doubles: within
# a 2 MB per-core L2 cache. The nuclear prox output adds only its factors.
_BLOCK_ENTRIES = 2 ** 14


class ConvergenceError(RuntimeError):
    """Solver failed to reach the requested tolerances."""


class CertificateUnavailableError(RuntimeError):
    """Dual certificate requested from a non-converged solver state."""


@dataclass(frozen=True)
class SolverConfig:
    theta: float
    penalty: float = 1.0          # splitting penalty, rescaled by ||A||_F
    max_iters: int = 50000
    tol_primal: float = 1e-8      # copy disagreement, relative
    tol_dual: float = 1e-8        # consensus drift per iteration, relative
    tol_gap: float = 1e-8         # certificate residual, relative
    support_tol: float = 1e-6     # support cutoff relative to ||X||_inf
    # the certificate is checked at every multiple of check_every where the
    # primal and dual residuals pass (a failing one could not stop the
    # solve), at every multiple when track_history is set, and always at
    # max_iters
    check_every: int = 25
    track_history: bool = False

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(
                f"theta must be finite and nonnegative, got {self.theta}")
        if not 0.0 < self.penalty < math.inf:
            raise ValueError(
                f"penalty must be finite and positive, got {self.penalty}")
        for name in ("max_iters", "check_every"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool) \
                    or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        for name in ("tol_primal", "tol_dual", "tol_gap", "support_tol"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


@dataclass(frozen=True)
class DualCertificate:
    """Decomposition A = Y + Z certifying (near-)optimality.

    dual_norm is the certificate's own dual value max{||Y||, ||Z||_inf/theta};
    at optimality it equals the dual norm of A. The diagnostics spectral_gap
    (sigma_1 - sigma_2 of Y) and linf_argmax_count (multiplicity of the
    entrywise max of |Z|) indicate, without proving, whether the primal
    optimizer is unique.
    """

    y: np.ndarray
    z: np.ndarray
    alpha: float
    beta: float
    dual_norm: float
    lambda_star: float
    spectral_gap: float
    linf_argmax_count: int


@dataclass
class SolverState:
    """Stopping residuals of a solve and the dual certificate built at its
    last check (the final iterate)."""

    a: np.ndarray
    theta: float
    iterations: int
    converged: bool
    primal_residual: float
    dual_residual: float
    cert_residual: float
    certificate: DualCertificate
    history: list = field(default_factory=list)
    # ||T(v) - v|| of each iteration, v the stacked prox inputs (with
    # track_history)
    fp_residuals: list = field(default_factory=list)


@dataclass(frozen=True)
class OptimalityReport:
    """Residuals of the optimality system for a scaled candidate X.

    balance, nuclear_alignment, l1_alignment and gap are relative to the
    certificate's dual value; scalar_sum, normalization and decomposition
    are dimensionless. All small (<= tol) certifies optimality.
    """

    balance: float            # | ||Y|| - ||Z||_inf/theta |
    nuclear_alignment: float  # | <X,Y> - ||X||_* ||Y|| |
    l1_alignment: float       # | <X,Z> - ||X||_1 ||Z||_inf |
    scalar_sum: float         # | alpha + theta*beta - 1 |
    normalization: float      # | ||X||_theta - 1 |
    decomposition: float      # ||Y + Z - A||_F / ||A||_F
    gap: float                # weak-duality slack, >= 0

    @property
    def max_residual(self):
        return max(self.balance, self.nuclear_alignment, self.l1_alignment,
                   self.scalar_sum, self.normalization, self.decomposition,
                   self.gap)

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
    is_rank_one: bool


@dataclass
class Solution:
    """Optimizer of the constrained problem, <A, X> = 1 normalization.

    `scaled()` returns the unit-theta-norm variant X / objective.
    """

    x: np.ndarray
    sigma: float
    u: np.ndarray
    v: np.ndarray
    support_rows: np.ndarray
    support_cols: np.ndarray
    objective: float          # ||X||_theta at the optimum
    gap: float                # certified relative duality gap
    iterations: int
    converged: bool
    non_unique: bool
    state: SolverState

    def scaled(self):
        return self.x / self.objective


def extract_rank_one(x, support_tol=1e-6, rank_tol=1e-6):
    """Leading singular triple of `x` plus row/column support sets.

    Support keeps indices whose largest entry magnitude exceeds
    support_tol * ||x||_inf. A zero matrix yields sigma 0 and empty sets.
    """
    xm = as_matrix(x)
    if not xm.any():
        return RankOneParts(0.0, np.zeros(xm.shape[0]), np.zeros(xm.shape[1]),
                            np.array([], dtype=int), np.array([], dtype=int),
                            False)
    return _rank_one_parts(xm, _support_svd(xm), support_tol, rank_tol)


def _rank_one_parts(xm, factors, support_tol, rank_tol=1e-6):
    """RankOneParts of a nonzero `xm` from its thin SVD (u, s, vt) or
    `_support_svd`, with the sign convention of `svd` applied to the
    leading pair."""
    u, s, vt = factors
    u0, v0 = _signed_pairs(u[:, :1], vt[:1])
    # + 0.0: the zeros off the support read 0.0 whichever sign a pair took
    u0, v0 = u0[:, 0] + 0.0, v0[0] + 0.0
    mag = np.abs(xm)
    cutoff = support_tol * mag.max()
    rows = np.flatnonzero(mag.max(axis=1) > cutoff)
    cols = np.flatnonzero(mag.max(axis=0) > cutoff)
    rank_one = bool(s[0] > 0 and (s.size == 1 or s[1] <= rank_tol * s[0]))
    return RankOneParts(float(s[0]), u0, v0, rows, cols, rank_one)


class _Check(NamedTuple):
    """Certificate pieces at one iterate, from one certificate check."""

    x_rep: np.ndarray         # candidate normalized to <A, x_rep> = 1
    fx: tuple                 # _support_svd (u, s, vt) of x_rep
    lam: float                # ||x_rep||_theta
    y: np.ndarray
    z: np.ndarray
    sy: np.ndarray            # singular values of y, nonincreasing
    dual: float               # max{||Y||, ||Z||_inf/theta}
    residual: float           # max(balance, alignment), relative

    @property
    def gap(self):
        """Relative weak-duality gap (dual - 1/lam) * lam, clipped at 0."""
        return max(0.0, self.dual - 1.0 / self.lam) * self.lam


def _check(a, theta, rho, xbar, v2):
    """Certificate A = Y + Z at the current iterate and its residual.

    The l1-side multiplier G2 = rho*(v2 - prox(v2)) is an exact subgradient
    of theta*||.||_1 at the thresholded copy, so Z = G2/objective satisfies
    its norm bound and alignment exactly; all convergence error lands in Y.
    The SVD of the candidate, with vectors and taken on its support, also
    serves the certificate's alpha and the solution's rank-one parts.
    """
    x2 = _soft_threshold(v2, theta / rho)
    g2 = rho * (v2 - x2)
    gain = float(np.vdot(a, x2))
    if gain <= 0.0 or not x2.any():
        # early iterates can threshold to zero; fall back to the projected
        # average (feasible by construction) with a clipped multiplier:
        # project_halfspace(xbar, a, 1.0) without its checks
        g = float(np.vdot(a, xbar))
        x2 = xbar if g >= 1.0 else \
            xbar + ((1.0 - g) / float(np.vdot(a, a))) * a
        gain = float(np.vdot(a, x2))
        g2 = np.clip(rho * (v2 - x2), -theta, theta)
    # x2 and g2 are not read again. Dropping x2 and forming z in the
    # memory of g2 leaves room for the Gram matrix below: the check holds
    # no more m x n arrays than with an SVD of y.
    x_rep = x2 / gain
    del x2
    fx = _support_svd(x_rep)
    nuc_rep = float(np.sum(fx[1]))
    lam = nuc_rep + theta * float(np.abs(x_rep).sum())  # ||x_rep||_theta
    z = np.divide(g2, lam, out=g2)
    y = a - z

    # sigma(Y) from the eigenvalues of the short-side Gram matrix, at about
    # half the cost of a square SVD and far less for a wide or tall Y. Only
    # sigma_1 and sigma_2 are read. sigma_1 comes to a few ulps; sigma_2 to
    # about eps sigma_1^2 / sigma_2, so to a few ulps of sigma_1 near a tie
    # (sigma_2 ~ sigma_1), the one place where the uniqueness test on the
    # gap sigma_1 - sigma_2 reads it closely.
    sy = np.sqrt(np.maximum(np.linalg.eigvalsh(
        y @ y.T if y.shape[0] <= y.shape[1] else y.T @ y), 0.0))[::-1]
    ny = float(sy[0])
    nz = float(np.abs(z).max())
    d_z = nz / theta if theta > 0 else ny
    scale = max(ny, d_z, 1.0 / lam)
    xs = x_rep / lam
    balance = abs(ny - nz / theta) / scale if theta > 0 else nz / scale
    align = abs(float(np.vdot(xs, y)) - nuc_rep / lam * ny) / scale
    return _Check(x_rep, fx, lam, y, z, sy, max(ny, d_z),
                  max(balance, align))


def _dual_certificate(chk):
    """The DualCertificate of a check; alpha and beta are the nuclear and
    l1 norms of the scaled solution x_rep / lam, so alpha + theta*beta = 1
    up to rounding."""
    sy = chk.sy
    # before |Z| is formed, so that at most two m x n temporaries coexist
    beta = float(np.abs(chk.x_rep / chk.lam).sum())
    zabs = np.abs(chk.z)
    zmax = float(zabs.max())
    ties = int(np.sum(zabs >= zmax * (1.0 - 1e-8))) if zmax > 0 else 0
    return DualCertificate(
        y=chk.y, z=chk.z, alpha=float(np.sum(chk.fx[1])) / chk.lam,
        beta=beta,
        dual_norm=chk.dual, lambda_star=1.0 / chk.dual,
        spectral_gap=float(sy[0] - sy[1]) if sy.size > 1 else float(sy[0]),
        linf_argmax_count=ties)


def solve(a, config):
    """Minimize ||X||_* + theta*||X||_1 subject to <a, X> >= 1.

    Three-copy consensus splitting: nuclear prox (singular value
    thresholding), l1 prox (soft thresholding), and halfspace projection,
    iterated on the three prox inputs. Stops when copy disagreement,
    consensus drift, the certificate residual and the certified gap all
    fall below the configured tolerances. On non-convergence the final
    iterate is returned with converged=False. Either way the dual
    certificate is the one checked at the final iterate.

    The problem is homogeneous in a: the splitting runs on a / 2^e, with e
    chosen so that ||a / 2^e||_inf lies in [0.5, 1), where ||a||_F^2 and
    the iterates neither overflow nor underflow for any scale of a. The
    scaling is exact, so X, the objective and the certificate are mapped
    back exactly on exit.
    """
    am = as_matrix(a)
    if not am.any():
        raise ValueError("input matrix must be nonzero")
    theta = config.theta
    e = int(np.frexp(np.abs(am).max())[1])
    # every work array is C-ordered whatever the layout of the input, so
    # the results are too
    a = np.ascontiguousarray(np.ldexp(am, -e))
    m, n = a.shape
    nf = float(np.linalg.norm(a))
    nf2 = nf * nf
    rho = config.penalty * nf
    tau_l1 = theta / rho
    nuclear_prox = _nuclear_prox(a.shape)

    # The state is the three prox inputs v_i = xbar - u_i. The multipliers
    # u_i start at zero and each update adds x_i - mean(x), so they sum to
    # zero and need not be kept.
    xbar = a / nf2
    xnew = np.empty_like(a)
    v = np.stack([xbar] * 3)
    g = float(np.vdot(a, xbar))        # <a, v3>
    rows = min(m, max(1, _BLOCK_ENTRIES // n))
    w_buf = np.empty((3 * rows, n))
    d_buf = np.empty((rows, n))
    blocks = []                        # (rows, 3-copy scratch, scratch)
    for i in range(0, m, rows):
        h = min(rows, m - i)
        blocks.append((slice(i, i + h), w_buf[:3 * h].reshape(3, h, n),
                       d_buf[:h]))

    history = []
    fp_residuals = []
    converged = False
    # the loop always checks at k == max_iters and stops only right after
    # a passing check, so the last check is always of the final iterate
    for k in range(1, config.max_iters + 1):
        # the nuclear copy x1 = left @ right, formed one row block at a time
        left, right = nuclear_prox(v[0], 1.0 / rho)
        lift = max(0.0, 1.0 - g) / nf2
        # the stopping test is read only for the history, at a multiple of
        # check_every and at max_iters; its sums are taken only then
        tested = (config.track_history or k % config.check_every == 0
                  or k == config.max_iters)
        # One pass over row blocks that stay in cache: the three copies
        # x1, x2, x3, their average xbar+, the next prox inputs
        # v_i + (xbar+ - xbar) - (x_i - xbar+), <A, v3> for the next
        # halfspace step and, when tested, the sums behind the stopping
        # test.
        rr = ss = nn = g = 0.0
        for b, w, d in blocks:
            vb, xn = v[:, b], xnew[b]
            np.dot(left[b], right, out=w[0])
            _l1_prox(vb[1], tau_l1, out=w[1])
            np.add(vb[2], np.multiply(lift, a[b], out=w[2]), out=w[2])
            np.add(w[0], w[1], out=xn)
            np.add(xn, w[2], out=xn)
            np.multiply(xn, 1.0 / 3.0, out=xn)
            np.subtract(w, xn, out=w)    # w_i = x_i - xbar+
            np.subtract(xn, xbar[b], out=d)
            if tested:
                rr += float(np.vdot(w, w))
                ss += float(np.vdot(d, d))
                nn += float(np.vdot(xn, xn))
            np.add(vb, np.subtract(d, w, out=w), out=vb)
            g += float(np.vdot(a[b], vb[2]))
        xbar, xnew = xnew, xbar
        if not math.isfinite(g):
            # the kernels do not validate; a non-finite prox output reaches
            # every v_i through xbar+, and so g, even where A is zero
            # (0 * NaN and 0 * inf are NaN)
            raise ValueError(f"solver iterate is not finite at iteration {k}")
        if not tested:
            continue
        r = math.sqrt(rr / 3.0)
        s = math.sqrt(ss)
        scale = max(math.sqrt(nn), 1e-300)
        r_rel = r / scale
        s_rel = s / scale
        if config.track_history:
            # ||T(v) - v||, the drift of the prox inputs: the governing
            # sequence of the splitting, guaranteed nonincreasing. Its
            # square is rr + 3 ss, as the x_i - xbar+ sum to zero.
            fp_residuals.append(math.ldexp(math.sqrt(rr + 3.0 * ss), -e))

        # convergence needs all four tests, so a check whose residuals
        # fail cannot stop the solve: it runs only for the history
        can_stop = r_rel <= config.tol_primal and s_rel <= config.tol_dual
        if k != config.max_iters and (k % config.check_every or not (
                can_stop or config.track_history)):
            continue
        chk = _check(a, theta, rho, xbar, v[1])
        if config.track_history:
            # in the units of am: X scales by 2^-e and rho by 2^e
            nuc = float(np.sum(_support_svd(xbar, compute_uv=False)))
            merit = (math.ldexp(nuc + theta * float(np.abs(xbar).sum()), -e)
                     + math.ldexp(rho, e)
                     * max(0.0, 1.0 - float(np.vdot(a, xbar))))
            history.append({
                "iteration": k,
                "merit": merit,
                "primal_residual": r_rel,
                "dual_residual": s_rel,
                "weak_duality_slack": math.ldexp(chk.dual - 1.0 / chk.lam, e),
            })
        if can_stop and max(chk.residual, chk.gap) <= config.tol_gap:
            converged = True
            break

    cert = _dual_certificate(chk)
    lam = chk.lam
    parts = _rank_one_parts(chk.x_rep, chk.fx, config.support_tol)
    unique_spectral = cert.spectral_gap > 1e-8 * max(float(chk.sy[0]), 1e-300)
    unique_linf = theta > 0 and cert.linf_argmax_count == 1
    # back to the scale of am, in place: the check's arrays are the result
    cert = replace(cert, y=np.ldexp(cert.y, e, out=cert.y),
                   z=np.ldexp(cert.z, e, out=cert.z),
                   dual_norm=math.ldexp(cert.dual_norm, e),
                   lambda_star=math.ldexp(cert.lambda_star, -e),
                   spectral_gap=math.ldexp(cert.spectral_gap, e))
    state = SolverState(a=am, theta=theta, iterations=k,
                        converged=converged, primal_residual=r_rel,
                        dual_residual=s_rel, cert_residual=chk.residual,
                        certificate=cert, history=history,
                        fp_residuals=fp_residuals)
    return Solution(x=np.ldexp(chk.x_rep, -e, out=chk.x_rep),
                    sigma=math.ldexp(parts.sigma, -e), u=parts.u, v=parts.v,
                    support_rows=parts.rows, support_cols=parts.cols,
                    objective=math.ldexp(lam, -e), gap=chk.gap, iterations=k,
                    converged=converged,
                    non_unique=not (unique_spectral or unique_linf),
                    state=state)


def recover_dual(a, theta, state):
    """Dual certificate (Y, Z, alpha, beta) of a converged solve.

    Returns the certificate built at the solve's last check, without new
    computation. Y + Z = a holds exactly by construction; alpha and beta
    are the nuclear and l1 norms of the scaled solution, so
    alpha + theta*beta = 1.
    """
    am = as_matrix(a)
    if not state.converged:
        raise CertificateUnavailableError(
            "certificate requires a converged solve "
            f"(stopped after {state.iterations} iterations)")
    if am.shape != state.a.shape or theta != state.theta:
        raise ValueError("state does not match the given problem")
    return state.certificate


def check_optimality(a, theta, x, cert):
    """Residual report for a scaled candidate `x` (theta-norm 1) and its
    certificate. Report-only: never raises on violated conditions.

    Conditions: (balance) the certificate's two norms agree; (alignment)
    x lies in the scaled subdifferentials of ||Y|| and ||Z||_inf; (scalars)
    alpha + theta*beta = 1; (normalization) ||x||_theta = 1. At theta = 0
    the balance residual degenerates to ||Z||_inf, which must vanish.
    """
    am = as_matrix(a)
    xm = as_matrix(x)
    y, z = as_matrix(cert.y), as_matrix(cert.z)
    ny = norm(y, "spectral")
    nz = norm(z, "linf")
    d_z = nz / theta if theta > 0 else ny
    scale = max(ny, d_z, 1e-300)
    balance = abs(ny - nz / theta) / scale if theta > 0 else nz / scale
    nuc_x = norm(xm, "nuclear")
    l1_x = norm(xm, "l1")
    nuclear_alignment = abs(float(np.vdot(xm, y)) - nuc_x * ny) / scale
    l1_alignment = abs(float(np.vdot(xm, z)) - l1_x * nz) / scale
    scalar_sum = abs(cert.alpha + theta * cert.beta - 1.0)
    normalization = abs(nuc_x + theta * l1_x - 1.0)
    decomposition = float(np.linalg.norm(y + z - am)) / max(
        float(np.linalg.norm(am)), 1e-300)
    gap = max(0.0, max(ny, d_z) - float(np.vdot(am, xm))) / scale
    return OptimalityReport(balance=balance,
                            nuclear_alignment=nuclear_alignment,
                            l1_alignment=l1_alignment,
                            scalar_sum=scalar_sum,
                            normalization=normalization,
                            decomposition=decomposition,
                            gap=gap)


def dual_theta_norm(a, theta, config=None):
    """Dual of the theta-norm at `a`: the reciprocal of the optimal value
    of the constrained problem, computed by running the solver.

    Equals min over Y+Z=a of max{||Y||, ||Z||_inf/theta} (for theta > 0).
    """
    am = as_matrix(a)
    if not am.any():
        raise ValueError("dual norm undefined at the zero matrix")
    if config is None:
        config = SolverConfig(theta=theta)
    elif config.theta != theta:
        raise ValueError("config.theta disagrees with theta argument")
    sol = solve(am, config)
    if not sol.converged:
        raise ConvergenceError(
            f"dual norm solve did not converge in {sol.iterations} iterations")
    return 1.0 / sol.objective
