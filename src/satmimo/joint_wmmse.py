"""Joint non-coherent transmission: block-coordinate WMMSE precoder design.

All satellites transmit all streams of every user. Because the satellites
cannot be phase-synchronized, signals radiated by different satellites add
non-coherently: the receiver-side model treats each satellite's copy of a
stream as a separate effective stream. Per user the combiner is therefore
M x (L*S) (one M x S block per satellite) and the MSE/weight matrices are
(L*S) x (L*S). With this convention the weighted sum-MSE objective is an
exact transform of the approximate sum SE: at the optimal combiner,
sum_k log2 det(E_k^{-1}) equals the approximate SE, the MSE matrix stays
positive definite for any precoders, and the per-satellite precoder update
keeps the familiar regularized closed form
    W_{l,k}(mu) = (sum_i Hb^H U_i C_i U_i^H Hb + sum_x mu_x A_x)^{-1} B_{l,k}.

One iteration is batched array work on a few kernels, which are the whole
design: every user's mean received Gram J_k and desired blocks G_k come
from `se_eval._receiver_grams`, whose Grams `se_eval.approx_se` also reads
(log2 det(J_k / noise) - log2 det((J_k - G_k G_k^H) / noise)), so the
design and the approximation share one formula; the MSE matrices come from
`_mse_at_optimum` (at the MMSE combiner) or `_mse_matrices` (any
combiner), and for fixed combiners and weights all satellites' precoder
subproblems from one `_PrecoderStep`.

The links are rank one, so satellite l's coupling matrix and right-hand
sides lie in the span of its K array responses A_l = [conj(a_{l,k})]_k for
the whole solve; an iteration changes only K coefficients. `solve`
factors every A_l = Q_l R_l once (`_TransmitBasis`, one batched QR), and a
satellite with a single total-power cap takes its step in K x K
coordinates (`_Spectrum`): the eigenpairs of R_l diag(c_l) R_l^H, the
right-hand-side coordinates, a closed-form (secular) power curve whose
root, found by a safeguarded Newton iteration, is the multiplier, and the
new precoders Q_l z diag(1/(lam + mu)) coords times their rows, the only
N-dimensional product. The precoders stay in antenna space, so every other
constraint family (per-antenna, custom, a single weighted cap) works on
the same state: it takes its multipliers from a safeguarded Newton search
on the concave dual of the dense subproblem, which returns only
multipliers it has certified feasible and optimal
(`dual_newton_multipliers`). There is no per-satellite or per-user view:
`solve` runs these kernels directly, and the tests check them.

Every kernel and the regularized-MMSE start read the channel through its
rank-one link factors b, a and beta only, and no closed form touches an
N x N matrix: `share_rule_blocks` takes every user's regularized inverse
direction from one K x K solve per satellite (the push-through identity),
the aggregated stream basis is the left singular basis of each user's
M x L link matrix, and `link_bases` writes the rank-one left vector
-b/||b|| directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import EffectiveChannel, link_matrix
from .errors import InfeasibleError, NumericsError, ValidationError
from .power import PowerConstraintSet, residuals as power_residuals
from .scenario import ScenarioConfig
from .se_eval import _receiver_grams

_LN2 = np.log(2.0)
_RANK_TOL = 1e-12
_DIRECTION_TOL = 1e-14
# the secular search takes its iterate as the root once a Newton step is
# below this fraction of it, and gives up after this many curve evaluations
_NEWTON_STOP = 1e-13
_MAX_CURVE_EVALS = 100
# the general search certifies |mu^T r| <= _GAP_REL |g| (a relative duality
# gap) and gives up after this many dual evaluations
_GAP_REL = 1e-6
_MAX_DUAL_EVALS = 100
# a Newton step moves each multiplier by at most a factor exp(_MAX_RATE),
# and mu^T caps stays above _SCALE_FLOOR |g| (below _GAP_REL, so a feasible
# point at the floor meets the gap certificate)
_MAX_RATE = np.log(1e2)
_SCALE_FLOOR = 1e-7


@dataclass
class SolverParams:
    max_iters: int = 40
    tol: float = 1e-4                 # stop when the objective decrease <= tol
    power_tol_rel: float = 1e-5       # feasibility tolerance relative to the cap

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "SolverParams":
        return cls(max_iters=config.max_iters, tol=config.tol,
                   power_tol_rel=config.ellipsoid_tol_rel)


@dataclass
class SolveTrace:
    objective: list = field(default_factory=list)
    multipliers: list = field(default_factory=list)   # per iteration: per-sat mu
    # per iteration: largest constraint residual relative to its cap,
    # max over satellites and constraints of g_x / cap_x
    max_residual: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    pinv_fallbacks: int = 0
    multiplier_searches: int = 0      # multiplier searches, secular or dual
    multiplier_evals: int = 0         # curve or dual evaluations they made


def _hermitian(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + mats.conj().swapaxes(-1, -2))


@functools.lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The read-only n x n identity, built once per size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _mse_matrices(combiners: np.ndarray, J: np.ndarray,
                  G: np.ndarray) -> np.ndarray:
    """E_k = U^H J U - U^H G - G^H U + I for arbitrary combiners, stacked."""
    UH = combiners.conj().swapaxes(-1, -2)
    cross = UH @ G
    E = UH @ J @ combiners - cross - cross.conj().swapaxes(-1, -2)
    return _hermitian(E + _eye(G.shape[-1]))


def _mse_at_optimum(combiners: np.ndarray, G: np.ndarray) -> np.ndarray:
    """E_k = I - G_k^H U_k, valid only at the MMSE combiner (cheap and PD)."""
    return _hermitian(_eye(G.shape[-1]) - G.conj().swapaxes(-1, -2) @ combiners)


def update_weights(mse: np.ndarray, logdet: bool = False):
    """Optimal MSE weights C_k = E_k^{-1} / ln 2; requires E_k Hermitian PD.
    With logdet=True, also log det C_k per user, read off the Cholesky
    factor of E_k that the check computes."""
    try:
        chol = np.linalg.cholesky(mse)
    except np.linalg.LinAlgError:
        k = int(np.argmin(np.linalg.eigvalsh(mse)[:, 0]))
        raise NumericsError(
            f"MSE matrix of user {k} is not positive definite") from None
    weights = _hermitian(np.linalg.inv(mse) / _LN2)
    if not logdet:
        return weights
    pivots = np.diagonal(chol, axis1=-2, axis2=-1).real
    return weights, -2.0 * np.log(pivots).sum(axis=-1) - mse.shape[-1] * np.log(_LN2)


def wmmse_objective(mse: np.ndarray, weights: np.ndarray,
                    logdet: np.ndarray) -> float:
    """sum_k Tr(C_k E_k) - log2 det(C_k), with logdet the log det C_k per
    user that `update_weights` returns."""
    traces = np.einsum("kij,kji->k", weights, mse).real
    return float(np.sum(traces - logdet / _LN2))


# -- single-cap multiplier: the secular equation ------------------------------

def _secular(curve, mu: float):
    """p(mu) = sum_j c_j/(lam_j + mu)^2 + d/mu^2 and q(mu) = -p'(mu)/2.

    curve is (c, lam, d) as Python floats: the rank is at most K, and a
    Python loop over a few floats is several times faster than numpy's
    per-call overhead. At mu = 0 the d term is dropped (the pseudoinverse
    solution, null-space component removed).
    """
    c, lam, d = curve
    p = d / mu ** 2 if mu > 0 else 0.0
    q = p / mu if mu > 0 else 0.0
    for c_j, lam_j in zip(c, lam):
        term = c_j / (lam_j + mu) ** 2
        p += term
        q += term / (lam_j + mu)
    return p, q


def secular_multiplier(curve, rho: float):
    """Smallest mu >= 0 with p(mu) <= rho, and the curve evaluations spent.

    Safeguarded Newton on phi(mu) = p(mu)^{-1/2} - rho^{-1/2} (More &
    Sorensen, "Computing a trust region step", 1983). phi is concave and
    increasing, so Newton steps taken left of the root stay left of it and
    approach it monotonically. The search starts at mu = 0 (the answer when
    the pseudoinverse solution meets the cap) and jumps to the largest of
    three lower bounds on the root: the first Newton step from 0,
    sqrt(d/rho) and max_j sqrt(c_j/rho) - lam_j. The bracket [lo, hi] starts
    with hi = sqrt((sum_j c_j + d)/rho); a step that leaves it is replaced by
    bisection. Once the Newton step is negligible the root certificate
    p(mu (1 - 1e-9)) > rho is checked; where the curve is flat to rounding
    and it fails, the root lies further left and the bracket shrinks to
    [lo, mu (1 - 1e-9)]. Raises NumericsError for a curve value that is not
    finite, for an exhausted evaluation budget, and unless
    |p(mu) - rho| <= 1e-10 rho at the returned mu.
    """
    c, lam, d = curve
    p, q = _secular(curve, 0.0)
    evals = 1
    if not math.isfinite(p):
        raise NumericsError(f"secular power curve is not finite at 0: {p}")
    if p <= rho:
        return 0.0, evals
    lo, hi = 0.0, math.sqrt((sum(c) + d) / rho)
    mu = max(p * (math.sqrt(p / rho) - 1.0) / q, math.sqrt(d / rho),
             *(math.sqrt(c_j / rho) - lam_j for c_j, lam_j in zip(c, lam)))
    while True:
        if evals >= _MAX_CURVE_EVALS:
            raise NumericsError(
                f"secular multiplier search used {evals} curve evaluations "
                f"without converging (bracket [{lo:.17g}, {hi:.17g}])")
        p, q = _secular(curve, mu)
        evals += 1
        if not (math.isfinite(p) and q > 0):
            raise NumericsError(f"secular power curve is not finite at {mu}")
        if p > rho:
            lo = mu
        else:
            hi = mu
        step = p * (math.sqrt(p / rho) - 1.0) / q
        if abs(step) <= _NEWTON_STOP * mu or hi - lo <= _NEWTON_STOP * hi:
            evals += 1
            if _secular(curve, mu * (1.0 - 1e-9))[0] > rho:
                break
            hi = mu * (1.0 - 1e-9)
            mu = 0.5 * (lo + hi)
            continue
        mu += step
        if not lo < mu < hi:
            mu = 0.5 * (lo + hi)
    if not abs(p - rho) <= 1e-10 * rho:
        raise NumericsError(
            f"secular multiplier {mu:.17g} fails the root certificate "
            f"(power {p:.17g}, cap {rho:.17g})")
    return mu, evals


# -- general constraint families: Newton on the dual --------------------------

def _pinv_solve(M: np.ndarray, rhs: np.ndarray):
    """Range inverse M^+ of a Hermitian PSD matrix (eigenvalues below
    _RANK_TOL of the largest dropped), M^+ rhs, the share of ||rhs||^2
    outside the kept range, and the condition number of the kept part."""
    if not np.all(np.isfinite(M)):
        raise NumericsError("dual matrix T + sum_x mu_x A_x is not finite")
    lam, Q = np.linalg.eigh(M)
    keep = lam > _RANK_TOL * max(lam[-1], 1e-300)
    inv = (Q[:, keep] / lam[keep]) @ Q[:, keep].conj().T
    null = Q[:, ~keep].conj().T @ rhs
    outside = np.vdot(null, null).real / max(np.vdot(rhs, rhs).real, 1e-300)
    cond = lam[-1] / lam[keep][0] if keep.any() else 1.0
    return inv, inv @ rhs, outside, cond


def _dual_point(factor, rhs, weights, caps, mu):
    """The dual of a satellite subproblem at multipliers mu >= 0.

    With M = T + sum_x mu_x A_x and v = M^+ rhs: the powers
    p_x = sum_k v_k^H A_x v_k (the dual gradient is p - caps), the dual value
    g = -Re Tr(rhs^H v) - mu^T caps, its Hessian
    -2 Re sum_k (A_x v_k)^H M^+ (A_y v_k), v, the share of rhs outside the
    range of M, and the rounding error of g (1e-13 + eps cond(M)) |g|.
    """
    X, N, _ = weights.shape
    K = rhs.shape[1]
    inv, v, outside, cond = _pinv_solve(
        factor @ factor.conj().T + np.tensordot(mu, weights, 1), rhs)
    Av = (weights.reshape(X * N, N) @ v).reshape(X, N, K)
    power = np.einsum("nk,xnk->x", v.conj(), Av).real
    value = -np.vdot(rhs, v).real - mu @ caps
    # M^+ A_y v for every y from one product
    inv_Av = (inv @ Av.transpose(1, 0, 2).reshape(N, X * K)).reshape(N, X, K)
    hess = -2.0 * (Av.reshape(X, N * K).conj()
                   @ inv_Av.transpose(1, 0, 2).reshape(X, N * K).T).real
    rounding = (1e-13 + np.finfo(float).eps * cond) * abs(value)
    return power, value, hess, v, outside, rounding


def _log_newton_step(mu, resid, hess, caps, floor):
    """Newton step of the dual in z = log mu, each entry clipped to
    +-_MAX_RATE.

    The gradient is mu * r and the Hessian diag(mu) H diag(mu) +
    diag(mu * r), less the positive part of its diagonal term so that it
    stays negative definite. Where the dual is flat along mu (its supremum
    approached as mu -> 0 along a direction that meets the caps) the step
    shrinks the scale of mu and not its direction; a step that would take
    mu^T caps below floor is replaced by the Newton step on the slice where
    mu^T caps = floor, which corrects the direction.
    """
    grad = mu * resid
    hess_z = mu[:, None] * hess * mu + np.diag(np.minimum(grad, 0.0))
    try:
        step = np.linalg.solve(-hess_z, grad)
        scale = caps @ mu
        if caps @ (mu * np.exp(np.clip(step, -_MAX_RATE, _MAX_RATE))) < floor:
            weight = caps * mu
            border = np.block([[-hess_z, weight[:, None]], [weight, 0.0]])
            step = np.linalg.solve(border, np.append(
                grad, scale * np.log(min(floor / scale, 1.0))))[:-1]
    except np.linalg.LinAlgError:
        raise NumericsError("dual Hessian of the power subproblem is "
                            "singular") from None
    return np.clip(step, -_MAX_RATE, _MAX_RATE)


def dual_newton_multipliers(factor, rhs, weights, caps, tol_rel: float,
                            start=None):
    """Certified multipliers of one satellite's general power constraints.

    The subproblem min_W Tr(W^H T W) - 2 Re Tr(rhs^H W) subject to
    Tr(W^H A_x W) <= caps_x, with T = factor factor^H (N, K factor), rhs
    (N, K) and weights the (X, N, N) stack of the A_x, has the concave dual
    g(mu) = -Tr(rhs^H M(mu)^+ rhs) - mu^T caps over mu >= 0, where
    M(mu) = T + sum_x mu_x A_x; its gradient is the residual vector
    r = p(mu) - caps (Yu & Lan, IEEE TSP 2007). The search
    - returns mu = 0 when rhs lies in the range of T and the pseudoinverse
      solution meets every cap;
    - otherwise starts at `start` if every entry is positive, or else on the
      cap-scaled ray mu = t / caps, at the first Newton step from t = 0 on
      the secular form of the mean of p_x / caps_x (as `secular_multiplier`
      takes it), aimed at the mean at 0 over the worst ratio there; M is
      nonsingular from then on;
    - then takes safeguarded Newton steps in log mu (`_log_newton_step`),
      which keep every multiplier positive without a projection and reach
      the cap where the powers fall as 1/mu^2 in one step; the step length
      halves from 1 until g does not fall by more than its rounding error.
    It stops on the certificate r_x <= tol_rel caps_x for every x and
    |mu^T r| <= 1e-6 |g|: v = M^+ rhs minimises the Lagrangian at mu, so its
    objective exceeds the optimum by at most that gap. Full Newton steps
    then go on while each certifies a gap at least ten times smaller, which
    makes the multiplier of a single cap its root to rounding. Returns (mu,
    v, dual evaluations). Raises NumericsError for a dual that is not finite
    or when the certificate is not met within _MAX_DUAL_EVALS evaluations,
    and InfeasibleError when rhs excites a direction that neither T nor any
    A_x penalises (the subproblem is unbounded).
    """
    caps = np.asarray(caps, float)
    evals = 0

    def point(mu):
        nonlocal evals
        if evals >= _MAX_DUAL_EVALS:
            raise NumericsError(
                f"general multiplier search used {evals} dual evaluations "
                f"without meeting its certificate (max residual "
                f"{np.max((power - caps) / caps):.3e} of the cap)")
        evals += 1
        out = _dual_point(factor, rhs, weights, caps, mu)
        if not all(np.all(np.isfinite(x)) for x in out[:3]):
            raise NumericsError(f"dual of the power subproblem is not finite "
                                f"at multipliers {mu}")
        return out

    def certified(mu, power, value):
        resid = power - caps
        return (np.all(resid <= tol_rel * caps)
                and abs(mu @ resid) <= _GAP_REL * abs(value))

    cold = start is None or not np.all(np.asarray(start) > 0)
    mu = np.zeros(caps.size) if cold else np.array(start, float)
    power, value, hess, v, outside, rounding = point(mu)
    if cold:
        if outside <= _DIRECTION_TOL and np.all(power <= caps * (1 + tol_rel)):
            return mu, v, evals
        u = 1.0 / caps
        if outside > _DIRECTION_TOL:
            t = 1.0          # g(0) = -inf: start inside, at the caps' scale
        else:
            # the first Newton step from 0 on the secular form of the
            # cap-weighted mean power, towards the mean at 0 over the worst
            # ratio p_x / caps_x there
            mean = u @ power
            t = mean * (np.sqrt(np.max(power * u)) - 1.0) / (-0.5 * u @ hess @ u)
        power, value, hess, v, outside, rounding = point(t * u)
        if outside > _DIRECTION_TOL:
            raise InfeasibleError(
                "the power constraints leave a direction of the right-hand "
                "side unpenalised; the precoder subproblem is unbounded")
        mu = t * u

    def advance(mu, step, floor):
        trial = mu * np.exp(step)
        trial *= max(1.0, floor / (caps @ trial))
        return trial, point(trial)

    while not certified(mu, power, value):
        floor = _SCALE_FLOOR * abs(value)
        step = _log_newton_step(mu, power - caps, hess, caps, floor)
        alpha = 1.0
        while True:
            trial, new = advance(mu, alpha * step, floor)
            if new[1] >= value - rounding or certified(trial, *new[:2]):
                break
            alpha *= 0.5
        mu = trial
        power, value, hess, v, outside, rounding = new
    # further full steps square the error where Newton converges; each is
    # kept while it certifies a gap at least ten times smaller
    while True:
        floor = _SCALE_FLOOR * abs(value)
        try:
            trial, new = advance(mu, _log_newton_step(
                mu, power - caps, hess, caps, floor), floor)
        except NumericsError:
            break
        if not (certified(trial, *new[:2])
                and 10.0 * abs(trial @ (new[0] - caps)) < abs(mu @ (power - caps))):
            break
        mu = trial
        power, value, hess, v, outside, rounding = new
    return mu, v, evals


# -- precoder subproblems -----------------------------------------------------

class _TransmitBasis:
    """The iteration-independent arrays of one solve's channel.

    Satellite l's right-hand-side directions rhs_dir[l] (K, N), row k
    sqrt(beta_{l,k}) conj(a_{l,k}), and its coupling T_l = A_l diag(c_l)
    A_l^H both lie in the span of A_l = [conj(a_{l,1}) ... conj(a_{l,K})];
    the iterations change only the K coefficients c_l. One batched QR per
    solve, A_l = Q_l R_l with q (L, N, r) and r (L, r, K), r = min(N, K),
    turns every total-power step into r x r work (`_Spectrum`): T_l =
    Q_l R_l diag(c_l) R_l^H Q_l^H and rhs_dir[l]^T = Q_l rhs_coords[l].
    dir_sq holds beta ||a||^2 per link, b_conj the conjugate receive factors.
    """

    def __init__(self, effective: EffectiveChannel):
        self.a_conj = effective.a.conj()                          # (L, K, N)
        root_beta = np.sqrt(effective.beta)
        self.q, self.r = np.linalg.qr(self.a_conj.swapaxes(1, 2))
        self.rhs_coords = self.r * root_beta[:, None, :]          # R diag(sqrt(beta))
        self.rhs_dir = root_beta[:, :, None] * self.a_conj
        self.dir_sq = np.einsum("lkn,lkn->lk", self.rhs_dir.conj(), self.rhs_dir).real
        self.b_conj = effective.b.conj()


class _PrecoderStep:
    """All satellites' precoder subproblems for fixed combiners and weights.

    Satellite l solves
        min_W sum_k Tr(W_k^H T_l W_k) - 2 Re Tr(B_{l,k}^H W_k)
    under its power constraints, where T_l = factor[l] factor[l]^H has rank
    <= K, factor[l] = A_l diag(sqrt(coeff[l])) (`_TransmitBasis`), and
    B_{l,k} = rhs_dir[l, k] rhs_row[l, k]^T is rank one. Arrays: coeff
    (L, K), rhs_dir (L, K, N), rhs_row (L, K, S); the (L, N, K) factor is
    built on first use, by the dense dual path only. basis is the solve's
    `_TransmitBasis`, factored here when not given.
    """

    def __init__(self, effective: EffectiveChannel, combiners: np.ndarray,
                 weights: np.ndarray, num_streams: int,
                 basis: _TransmitBasis | None = None):
        L, K, M, N = effective.shape
        S = num_streams
        self.basis = _TransmitBasis(effective) if basis is None else basis
        # u[l, i] = b_{l,i}^H U_i and uc[l, i] = u[l, i] C_i, both (L*S,)
        u = np.einsum("lim,imj->lij", self.basis.b_conj, combiners)
        uc = np.einsum("lij,ijh->lih", u, weights)
        self.coeff = np.maximum(
            effective.beta * np.einsum("lih,lih->li", uc, u.conj()).real, 0.0)
        self.rhs_dir = self.basis.rhs_dir
        sats = np.arange(L)
        self.rhs_row = uc.reshape(L, K, L, S)[sats, :, sats]       # block l

    @functools.cached_property
    def factor(self) -> np.ndarray:
        """T's (L, N, K) factors A_l diag(sqrt(coeff[l]))."""
        return (np.sqrt(self.coeff)[:, :, None] * self.basis.a_conj).swapaxes(1, 2)


class _Spectrum:
    """Range eigenpairs of the coupling matrices of some satellites, stacked,
    in the coordinates of the solve's transmit basis.

    With A_l = Q_l R_l (`_TransmitBasis`), T_l = Q_l (R_l diag(c_l) R_l^H)
    Q_l^H: one batched r x r eigenproblem R_l diag(c_l) R_l^H = z lam z^H
    gives T_l's eigenpairs (lam, Q_l z), orthonormal to machine precision
    even when the eigenvalue spread is extreme. The right-hand sides lie in
    range(Q_l), so their coordinates z^H rhs_coords are all of them.
    Eigenvalues below _RANK_TOL of a satellite's largest are masked out of
    its range; the right-hand side's part along the masked directions is
    the part outside the range, the d/mu^2 term of the power curve.
    Nothing here is N-dimensional until `precoders` writes them back.
    """

    def __init__(self, step: _PrecoderStep, sats: np.ndarray):
        basis = step.basis
        self.q = basis.q[sats]
        r = basis.r[sats]
        # eigh reads the lower triangle only: no symmetrisation needed
        self.lam, self.z = np.linalg.eigh(
            (r * step.coeff[sats][:, None, :]) @ r.conj().swapaxes(1, 2))
        self.keep = self.lam > _RANK_TOL * np.maximum(self.lam[:, -1:], 1e-300)
        self.coords = self.z.conj().swapaxes(1, 2) @ basis.rhs_coords[sats]
        self.row = step.rhs_row[sats]
        row_sq = np.square(np.abs(self.row)).sum(axis=2)
        energy = np.square(np.abs(self.coords))                   # (n, r, K)
        c = (energy @ row_sq[:, :, None])[:, :, 0]
        # secular power curves p(mu) = sum_j c_j/(lam_j + mu)^2 + d/mu^2
        c_kept, lam_kept, d = c.tolist(), self.lam.tolist(), np.zeros(len(c))
        self.pinv = np.zeros(len(c), bool)
        masked = ~self.keep
        if masked.any():
            # the pseudoinverse (mu = 0) solve drops the masked part of an
            # active user's right-hand side
            perp_sq = (masked[:, None, :] @ energy)[:, 0]
            d = np.where(masked, c, 0.0).sum(axis=1)
            self.pinv = np.any((row_sq > 0) & (perp_sq > _DIRECTION_TOL * np.maximum(
                basis.dir_sq[sats], 1e-300)), axis=1)
            keep = self.keep.tolist()
            c_kept = [[v for v, k in zip(*x) if k] for x in zip(c_kept, keep)]
            lam_kept = [[v for v, k in zip(*x) if k] for x in zip(lam_kept, keep)]
        self.curves = list(zip(c_kept, lam_kept, d.tolist()))

    def precoders(self, mu: np.ndarray) -> np.ndarray:
        """Closed-form precoders (n, K, N, S) at per-satellite multipliers:
        the coordinates scaled by 1/(lam + mu) on the range and by 1/mu
        (0 at mu = 0) on the masked directions, then written back through
        Q z."""
        mu = np.asarray(mu, float)[:, None]
        gain = np.divide(1.0, np.where(self.keep, self.lam + mu, mu),
                         out=np.zeros_like(self.lam), where=self.keep | (mu > 0))
        # user k's coordinates times its row, (n, K, r, S): one product per
        # user writes its precoder
        y = (self.z @ (gain[:, :, None] * self.coords)).swapaxes(1, 2)
        return self.q[:, None] @ (y[..., None] * self.row[:, :, None, :])


def link_bases(effective: EffectiveChannel, l: int, num_streams: int) -> list:
    """Per-link stream bases of satellite l: for every user k the (M, S)
    matrix with the left singular vector -b_{l,k}/||b_{l,k}|| of the
    rank-one Hb_{l,k} in column 0 and exact zeros after it. The sign is the
    one LAPACK's SVD gives for the ULA links of the presets, so the phase
    of the closed forms built on it is explicit."""
    b = effective.b[l]
    bases = np.zeros(b.shape + (num_streams,), complex)
    bases[:, :, 0] = -b / np.linalg.norm(b, axis=1, keepdims=True)
    return list(bases)


def share_rule_blocks(effective: EffectiveChannel, l: int, cap: float,
                      blocks, reg: float) -> list:
    """Satellite l's regularized channel-inversion blocks under the
    sqrt(beta) share rule.

    blocks are (user k, stream basis Q (M, S_b)) pairs; a user may repeat.
    The block of (k, Q) points along G^{-1} Hb_{l,k}^H Q with the Gram
    G = reg*I_N + sum_i Hb_{l,i}^H Hb_{l,i} = reg*I_N + A^H D A,
    where row i of A is a_{l,i}^T, D = diag(beta_{l,i} ||b_{l,i}||^2) and
    Hb_{l,k}^H Q = sqrt(beta_{l,k}) conj(a_{l,k}) (b_{l,k}^H Q). Every
    user's G^{-1} conj(a_{l,k}) comes from one K x K solve by the
    push-through identity G^{-1} A^H = A^H (reg*I_K + D A A^H)^{-1}, so G is
    never formed (Peel, Hochwald & Swindlehurst, IEEE Trans. Commun. 2005).
    reg = 0 needs D A A^H nonsingular. The block is scaled to squared
    Frobenius norm exactly cap * sqrt(beta_{l,k}) / sum_j sqrt(beta_{l,k_j}),
    the sum running over all blocks j, so together they spend the cap. A
    direction below 1e-300 in norm (the basis is invisible on this link)
    falls back to the matched filter conj(a_{l,k}) in its first column.
    Returns the (N, S_b) blocks in order.
    """
    a, b, beta = effective.a[l], effective.b[l], effective.beta[l]
    load = beta * np.einsum("km,km->k", b.conj(), b).real
    core = reg * np.eye(len(beta)) + (load[:, None] * a) @ a.conj().T
    directions = a.conj().T @ np.linalg.inv(core)      # column k: G^{-1} conj(a_k)
    blocks = list(blocks)
    root_beta = np.sqrt(beta[[k for k, _ in blocks]])
    shares = cap * root_beta / root_beta.sum()
    out = []
    for (k, q), share in zip(blocks, shares):
        raw = np.outer(np.sqrt(beta[k]) * directions[:, k], b[k].conj() @ q)
        norm = np.linalg.norm(raw)
        if norm < 1e-300:
            raw = np.zeros_like(raw)
            raw[:, 0] = a[k].conj()
            norm = np.linalg.norm(raw)
        out.append(np.sqrt(share) * raw / norm)
    return out


def init_precoders(effective: EffectiveChannel, constraints: PowerConstraintSet,
                   num_streams: int | None = None,
                   stream_basis: str = "per-link") -> np.ndarray:
    """Regularized-MMSE initialization with sqrt(beta)-proportional power
    sharing (`share_rule_blocks` with the noise power as regularizer, one
    block per user, cap min_x rho_{l,x}); feasible for per-satellite-total
    constraints by construction.

    With the default stream basis, Q is the rank-one Hb_{l,k}'s own left
    vector -b_{l,k}/||b_{l,k}|| in column 0 and zeros after it
    (`link_bases`), so every stream beyond the first is exactly zero and
    each precoder column is -sqrt(share) G^{-1} conj(a_{l,k}) / ||.||.
    stream_basis="aggregated"
    takes Q from the user's aggregated channel instead: the S leading left
    singular vectors of its link matrix (`channel.link_matrix`), completed
    to an orthonormal basis of C^M when S exceeds its rank. That seeds S
    distinct stream directions per link; the two variants have identical
    approximate SE (all columns share one transmit direction) but only the
    aggregated one lets the solver develop genuine multi-stream structure.
    """
    L, K, M, N = effective.shape
    S = M if num_streams is None else num_streams
    if stream_basis not in ("per-link", "aggregated"):
        raise ValidationError(f"unknown stream basis {stream_basis!r}")
    if stream_basis == "aggregated":
        bases = np.linalg.svd(link_matrix(effective))[0][..., :S]
    out = np.empty((L, K, N, S), complex)
    for l in range(L):
        if stream_basis == "per-link":
            bases = link_bases(effective, l, S)
        out[l] = share_rule_blocks(effective, l, float(constraints.caps[l].min()),
                                   enumerate(bases), effective.noise_power_w)
    return out


def solve(effective: EffectiveChannel, constraints: PowerConstraintSet,
          params: SolverParams | None = None, initial: np.ndarray | None = None,
          num_streams: int | None = None):
    """Run the block-coordinate WMMSE design.

    Alternates MMSE combiners, inverse-MSE weights and per-satellite
    closed-form precoders. Satellites with a single total-power cap are
    updated together in the K x K coordinates of the solve's transmit basis
    (`_TransmitBasis`, factored once): one stacked eigendecomposition, a
    safeguarded Newton root of each secular power curve
    (`secular_multiplier`, certified) and one batched precoder expression.
    Satellites with any other constraint family take their multipliers from
    `dual_newton_multipliers` (certified feasible and optimal), warm-started
    at the previous iteration's.
    A precoder column W[l, k, :, s] that is zero at the start stays exactly
    zero (its combiner column is zero and its MSE block the identity),
    which is how the streamwise mode restricts the design to its sparsity
    pattern. Returns (precoders, SolveTrace); the objective trace is
    non-increasing, the trace counts every multiplier search (secular or
    dual) and its evaluations, and the output satisfies every power
    constraint within the feasibility tolerance of its own cap.
    """
    if params is None:
        params = SolverParams()
    L, K, M, N = effective.shape
    if num_streams is None:
        num_streams = initial.shape[-1] if initial is not None else M
    S = num_streams
    noise = effective.noise_power_w

    # default start: aggregated stream basis (same approximate SE as the
    # MMSE baseline, but with S live stream directions per link)
    W = initial.copy() if initial is not None else init_precoders(
        effective, constraints, S, stream_basis="aggregated")
    trace = SolveTrace()
    prev_obj = np.inf
    basis = _TransmitBasis(effective)
    identity = np.array(constraints.identity, bool)
    # a silent satellite stays silent: its combiner columns, hence its
    # right-hand sides, are exactly zero
    live = W.reshape(L, -1).any(axis=1)
    single = np.flatnonzero(live & identity)
    general = np.flatnonzero(live & ~identity)
    single_caps = [float(constraints.caps[l][0]) for l in single]
    caps = np.concatenate(constraints.caps)
    J, G = _receiver_grams(W, effective, noise)
    resid = None

    for it in range(1, params.max_iters + 1):
        U = np.linalg.solve(J, G)
        C, logdet_c = update_weights(_mse_at_optimum(U, G), logdet=True)

        iter_mus = [np.zeros(constraints.num_constraints(l)) for l in range(L)]
        step = _PrecoderStep(effective, U, C, S, basis)
        if single.size:
            spectrum = _Spectrum(step, single)
            mus = np.empty(single.size)
            for x, l in enumerate(single):
                mus[x], evals = secular_multiplier(spectrum.curves[x], single_caps[x])
                trace.multiplier_evals += evals
                iter_mus[l] = mus[x:x + 1]
            trace.multiplier_searches += single.size
            trace.pinv_fallbacks += int(np.sum((mus == 0.0) & spectrum.pinv))
            W[single] = spectrum.precoders(mus)
        for l in general:
            # B_{l,k} is rank one: search on its directions scaled by the
            # row norms, warm at the previous iteration's multipliers, then
            # give every user's solution its unit row back
            row = step.rhs_row[l]
            norms = np.linalg.norm(row, axis=1)
            iter_mus[l], v, evals = dual_newton_multipliers(
                step.factor[l], step.rhs_dir[l].T * norms, constraints.weights[l],
                constraints.caps[l], params.power_tol_rel,
                start=trace.multipliers[-1][l] if trace.multipliers else None)
            unit = np.divide(row, norms[:, None], out=np.zeros_like(row),
                             where=norms[:, None] > 0)
            W[l] = np.einsum("nk,ks->kns", v, unit)
            trace.multiplier_searches += 1
            trace.multiplier_evals += evals

        # the grams at the new precoders serve this iteration's objective
        # and the next iteration's combiners
        J, G = _receiver_grams(W, effective, noise)
        obj = wmmse_objective(_mse_matrices(U, J, G), C, logdet_c)
        resid = _residuals(W, constraints, caps)
        trace.objective.append(obj)
        trace.multipliers.append(iter_mus)
        trace.max_residual.append(float(np.max(resid / caps)))
        trace.iterations = it
        delta = prev_obj - obj
        prev_obj = obj
        if delta <= params.tol:
            trace.converged = True
            break

    if resid is None:
        resid = _residuals(W, constraints, caps)
    _assert_feasible(resid, constraints, params.power_tol_rel)
    return W, trace


def _residuals(W, constraints, caps) -> np.ndarray:
    """Every constraint residual g_{l,x} = p_{l,x} - cap_{l,x}, satellite
    by satellite in the order of caps = np.concatenate(constraints.caps):
    one vectorised pass when every satellite has a single total-power cap,
    power.residuals per satellite otherwise."""
    if all(constraints.identity):
        flat = W.reshape(len(W), -1)
        return np.einsum("ij,ij->i", flat.conj(), flat).real - caps
    return np.concatenate([power_residuals(W[l], constraints, l)
                           for l in range(constraints.num_sats)])


def _assert_feasible(resid, constraints, tol_rel):
    """Every constraint within tol_rel of its own cap (plus 1e-12 W), from
    the residuals of `_residuals`; the error names the first satellite
    with a violation and its worst constraint."""
    limit = tol_rel * np.concatenate(constraints.caps) + 1e-12
    bad = np.flatnonzero(resid > limit)
    if bad.size:
        sat = np.repeat(np.arange(constraints.num_sats),
                        [len(c) for c in constraints.caps])
        own = np.flatnonzero(sat == sat[bad[0]])
        i = own[np.argmax(resid[own] - limit[own])]
        raise NumericsError(
            f"satellite {sat[i]}: output violates power constraint {i - own[0]} "
            f"(residual {resid[i]:.3e} > {limit[i]:.3e})")
