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

The per-satellite quadratic coupling matrix has rank at most K, which gives
a closed-form power curve for the per-satellite-total multiplier search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import EffectiveChannel
from .ellipsoid import EllipsoidParams, bisect_multiplier, solve_multipliers
from .errors import NumericsError, ValidationError
from .power import PowerConstraintSet, residuals as power_residuals
from .scenario import ScenarioConfig

_LN2 = np.log(2.0)
_RANK_TOL = 1e-12
_DIRECTION_TOL = 1e-14


@dataclass
class SolverParams:
    max_iters: int = 40
    tol: float = 1e-4                 # stop when the objective decrease <= tol
    power_tol_rel: float = 1e-5       # feasibility tolerance relative to the cap
    ellipsoid_alpha: float = 2.0
    ellipsoid_max_iters: int = 300
    max_doublings: int = 60

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "SolverParams":
        return cls(max_iters=config.max_iters, tol=config.tol,
                   power_tol_rel=config.ellipsoid_tol_rel,
                   ellipsoid_alpha=config.ellipsoid_alpha,
                   ellipsoid_max_iters=config.ellipsoid_max_iters)


@dataclass
class SolveTrace:
    objective: list = field(default_factory=list)
    multipliers: list = field(default_factory=list)   # per iteration: per-sat mu
    max_residual: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    pinv_fallbacks: int = 0


@dataclass
class WmmseState:
    """Combiners, weights and MSE matrices at one precoder point.

    combiners: (K, M, L*S); weights and mse: (K, L*S, L*S).
    """

    combiners: np.ndarray
    weights: np.ndarray
    mse: np.ndarray
    objective: float


def wmmse_state(precoders: np.ndarray, effective: EffectiveChannel,
                noise: float) -> WmmseState:
    """Snapshot the receiver-side quantities for a given precoder set:
    optimal combiners, the MSE matrices at them, the matched weights and the
    weighted sum-MSE objective."""
    U = update_combiners(precoders, effective, noise)
    E = mse_at_optimum(U, precoders, effective)
    C = update_weights(E)
    return WmmseState(combiners=U, weights=C, mse=E,
                      objective=wmmse_objective(E, C))


def stacked_streams(precoders: np.ndarray, effective: EffectiveChannel,
                    k: int) -> np.ndarray:
    """Desired stream matrix of user k: the L per-satellite blocks
    Hb_{l,k} W_{l,k} side by side, shape (M, L*S)."""
    L, K, M, N = effective.shape
    S = precoders.shape[-1]
    rows = np.einsum("ln,lns->ls", effective.a[:, k], precoders[:, k])
    blocks = np.sqrt(effective.beta[:, k])[:, None, None] * \
        effective.b[:, k][:, :, None] * rows[:, None, :]       # (L, M, S)
    return blocks.transpose(1, 0, 2).reshape(M, L * S)


def _total_gram(precoders, effective, k, noise):
    """J_k = noise*I + sum_i sum_l (Hb W)(Hb W)^H for user k."""
    L, K, M, N = effective.shape
    rows = np.einsum("ln,lins->lis", effective.a[:, k], precoders)   # (L,K,S)
    blocks = np.sqrt(effective.beta[:, k])[:, None, None, None] * \
        effective.b[:, k][:, None, :, None] * rows[:, :, None, :]    # (L,K,M,S)
    gram = np.einsum("lims,lins->mn", blocks, blocks.conj())
    return gram + noise * np.eye(M)


def mse_matrix(combiner_k: np.ndarray, precoders: np.ndarray,
               effective: EffectiveChannel, k: int, noise: float) -> np.ndarray:
    """MSE matrix of user k for an arbitrary combiner, shape (L*S, L*S).

    Indexed by (satellite, stream) pairs in satellite-major order. Equals the
    identity when the combiner is zero.
    """
    U = np.asarray(combiner_k)
    J = _total_gram(precoders, effective, k, noise)
    G = stacked_streams(precoders, effective, k)
    if U.shape != G.shape:
        raise ValidationError(
            f"combiner of user {k} must have shape {G.shape}, got {U.shape}")
    cross = U.conj().T @ G
    E = U.conj().T @ J @ U - cross - cross.conj().T + np.eye(G.shape[1])
    return 0.5 * (E + E.conj().T)


def update_combiners(precoders: np.ndarray, effective: EffectiveChannel,
                     noise: float) -> np.ndarray:
    """MMSE combiners (K, M, L*S); minimizes Tr(E_k) for every user."""
    L, K, M, N = effective.shape
    S = precoders.shape[-1]
    out = np.empty((K, M, L * S), complex)
    for k in range(K):
        J = _total_gram(precoders, effective, k, noise)
        out[k] = np.linalg.solve(J, stacked_streams(precoders, effective, k))
    return out


def mse_at_optimum(combiners: np.ndarray, precoders: np.ndarray,
                   effective: EffectiveChannel) -> np.ndarray:
    """E_k = I - G_k^H U_k, valid only at the MMSE combiner (cheap and PD)."""
    K = combiners.shape[0]
    dim = combiners.shape[2]
    out = np.empty((K, dim, dim), complex)
    for k in range(K):
        G = stacked_streams(precoders, effective, k)
        E = np.eye(dim) - G.conj().T @ combiners[k]
        out[k] = 0.5 * (E + E.conj().T)
    return out


def update_weights(mse: np.ndarray) -> np.ndarray:
    """Optimal MSE weights C_k = E_k^{-1} / ln 2; requires E_k Hermitian PD."""
    out = np.empty_like(mse)
    for k, E in enumerate(mse):
        try:
            np.linalg.cholesky(E)
        except np.linalg.LinAlgError:
            raise NumericsError(
                f"MSE matrix of user {k} is not positive definite") from None
        out[k] = np.linalg.inv(E) / _LN2
        out[k] = 0.5 * (out[k] + out[k].conj().T)
    return out


def wmmse_objective(mse: np.ndarray, weights: np.ndarray) -> float:
    """sum_k Tr(C_k E_k) - log2 det(C_k)."""
    total = 0.0
    for E, C in zip(mse, weights):
        sign, logdet = np.linalg.slogdet(C)
        if sign <= 0:
            raise NumericsError("weight matrix lost positive definiteness")
        total += float(np.trace(C @ E).real) - logdet / _LN2
    return total


def _range_eigen(factor: np.ndarray):
    """Eigenpairs of factor @ factor^H restricted to its range.

    QR first, then the K x K projected eigenproblem: the returned basis is
    orthonormal to machine precision even when the eigenvalue spread is
    extreme, which the plain Gram route is not.
    """
    q, r = np.linalg.qr(factor)
    small = r @ r.conj().T
    lam, z = np.linalg.eigh(0.5 * (small + small.conj().T))
    keep = lam > _RANK_TOL * max(lam.max(initial=0.0), 1e-300)
    return lam[keep], q @ z[:, keep]


class _SatSubproblem:
    """Per-satellite precoder subproblem for fixed combiners and weights.

    min_W sum_k Tr(W_k^H T W_k) - 2 Re Tr(B_k^H W_k)  s.t. power constraints,
    where T has rank <= K and every B_k is a rank-one outer product. The
    identity-constraint path eigendecomposes T once and evaluates the power
    curve of W(mu) in closed form.
    """

    def __init__(self, effective: EffectiveChannel, combiners: np.ndarray,
                 weights: np.ndarray, l: int, num_streams: int):
        L, K, M, N = effective.shape
        S = num_streams
        self.l = l
        self.num_users = K
        self.shape = (K, N, S)
        coeff = np.empty(K)
        for i in range(K):
            u_row = effective.b[l, i].conj() @ combiners[i]       # (L*S,)
            coeff[i] = effective.beta[l, i] * float(
                np.real(u_row @ weights[i] @ u_row.conj()))
        coeff = np.maximum(coeff, 0.0)
        self.factor = np.sqrt(coeff) * effective.a[l].conj().T    # (N, K)

        self.rhs_dir = np.empty((K, N), complex)    # a_{l,k}^* scaled by sqrt(beta)
        self.rhs_row = np.empty((K, S), complex)    # b^H (U_k C_k) block l
        for k in range(K):
            uc = combiners[k] @ weights[k]
            self.rhs_dir[k] = np.sqrt(effective.beta[l, k]) * effective.a[l, k].conj()
            self.rhs_row[k] = effective.b[l, k].conj() @ uc[:, l * S:(l + 1) * S]
        self._eig = None

    # -- shared --------------------------------------------------------------
    def coupling_matrix(self) -> np.ndarray:
        return self.factor @ self.factor.conj().T

    def rhs_matrix(self, k: int) -> np.ndarray:
        return np.outer(self.rhs_dir[k], self.rhs_row[k])

    def objective(self, precoders_l: np.ndarray) -> float:
        """Quadratic subproblem objective at the given (K, N, S) precoders."""
        T = self.coupling_matrix()
        val = 0.0
        for k in range(self.num_users):
            Wk = precoders_l[k]
            val += float(np.trace(Wk.conj().T @ T @ Wk).real)
            val -= 2.0 * float(np.trace(self.rhs_matrix(k).conj().T @ Wk).real)
        return val

    # -- identity-constraint fast path ----------------------------------------
    def _eigen(self):
        if self._eig is None:
            lam, basis = _range_eigen(self.factor)
            coords = basis.conj().T @ self.rhs_dir.T        # (rank, K)
            perp = self.rhs_dir.T - basis @ coords          # (N, K)
            perp_sq = np.maximum(
                np.einsum("nk,nk->k", perp.conj(), perp).real, 0.0)
            row_sq = np.einsum("ks,ks->k", self.rhs_row.conj(), self.rhs_row).real
            self._eig = (lam, basis, coords, perp_sq, row_sq)
            # secular power curve p(mu) = sum_j c_j/(lam_j + mu)^2 + d/mu^2,
            # kept as Python floats: the rank is at most K, and a Python
            # loop over a few floats is several times faster than numpy's
            # per-call overhead in the multiplier search
            self._curve = ((np.abs(coords) ** 2 @ row_sq).tolist(), lam.tolist(),
                           float(perp_sq @ row_sq))
        return self._eig

    def power_identity(self, mu: float) -> float:
        """sum_k ||W_k(mu)||_F^2 for the single A = I constraint."""
        self._eigen()
        c, lam, d = self._curve
        # mu == 0: pseudoinverse solution, null-space component dropped
        total = d / mu ** 2 if mu > 0 else 0.0
        for c_j, lam_j in zip(c, lam):
            total += c_j / (lam_j + mu) ** 2
        return total

    def precoders_identity(self, mu: float) -> np.ndarray:
        lam, basis, coords, perp_sq, row_sq = self._eigen()
        K, N, S = self.shape
        out = np.empty((K, N, S), complex)
        for k in range(K):
            if lam.size:
                v = basis @ (coords[:, k] / (lam + mu))
            else:
                v = np.zeros(N, complex)
            if mu > 0:
                v = v + (self.rhs_dir[k] - basis @ coords[:, k]) / mu
            out[k] = np.outer(v, self.rhs_row[k])
        return out

    def pinv_used(self) -> bool:
        """True when the mu = 0 solve had to drop a null-space component."""
        lam, basis, coords, perp_sq, row_sq = self._eigen()
        dir_sq = np.einsum("kn,kn->k", self.rhs_dir.conj(), self.rhs_dir).real
        active = row_sq > 0
        return bool(np.any(perp_sq[active] > _DIRECTION_TOL * np.maximum(dir_sq[active], 1e-300)))

    # -- general-constraint path ----------------------------------------------
    def precoders_general(self, mu: np.ndarray,
                          constraints: PowerConstraintSet) -> np.ndarray:
        mat = self.coupling_matrix()
        for mx, A in zip(np.atleast_1d(mu), constraints.weights[self.l]):
            mat = mat + mx * A
        K, N, S = self.shape
        rhs = np.stack([self.rhs_matrix(k) for k in range(K)], axis=0)
        flat = rhs.transpose(1, 0, 2).reshape(N, K * S)
        try:
            sol = np.linalg.solve(mat, flat)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(mat, flat, rcond=None)[0]
        return sol.reshape(N, K, S).transpose(1, 0, 2)


def precoder_given_mu(mu, combiners: np.ndarray, weights: np.ndarray,
                      effective: EffectiveChannel, l: int,
                      constraints: PowerConstraintSet,
                      num_streams: int | None = None) -> np.ndarray:
    """Closed-form per-satellite precoders (K, N, S) for a given multiplier.

    mu may be a scalar (identity constraint) or a length-X_l vector. At
    mu = 0 a singular system falls back to the minimum-norm (pseudoinverse)
    stationary solution.
    """
    if num_streams is None:
        num_streams = combiners.shape[2] // effective.shape[0]
    sub = _SatSubproblem(effective, combiners, weights, l, num_streams)
    mu = np.atleast_1d(np.asarray(mu, float))
    if constraints.identity[l] and mu.size == 1:
        return sub.precoders_identity(float(mu[0]))
    return sub.precoders_general(mu, constraints)


def init_precoders(effective: EffectiveChannel, constraints: PowerConstraintSet,
                   num_streams: int | None = None,
                   stream_basis: str = "per-link") -> np.ndarray:
    """Regularized-MMSE initialization with sqrt(beta)-proportional power
    sharing; feasible for per-satellite-total constraints by construction.

    Per link the direction follows (sum_i Hb_i^H Hb_i + noise I)^{-1} Hb_k^H Q,
    then W_{l,k} is scaled to its power share exactly. With the default
    stream basis, Q holds the S dominant left singular vectors of the
    rank-one Hb_{l,k} itself (first column channel-determined, remainder an
    orthonormal completion), which leaves every stream beyond the first with
    zero power. stream_basis="aggregated" takes Q from the user's aggregated
    channel instead, seeding S distinct stream directions per link; the two
    variants have identical approximate SE (all columns share one transmit
    direction) but only the aggregated one lets the solver develop genuine
    multi-stream structure.
    """
    L, K, M, N = effective.shape
    S = M if num_streams is None else num_streams
    noise = effective.noise_power_w
    if stream_basis not in ("per-link", "aggregated"):
        raise ValidationError(f"unknown stream basis {stream_basis!r}")
    if stream_basis == "aggregated":
        from .channel import aggregate_all
        bases = [np.linalg.svd(agg, full_matrices=False)[0][:, :S]
                 for agg in aggregate_all(effective)]
    out = np.empty((L, K, N, S), complex)
    for l in range(L):
        reg = noise * np.eye(N, dtype=complex)
        for i in range(K):
            reg += effective.hbar[l, i].conj().T @ effective.hbar[l, i]
        rho_bar = float(constraints.caps[l].min())
        root_beta = np.sqrt(effective.beta[l])
        shares = rho_bar * root_beta / root_beta.sum()
        for k in range(K):
            if stream_basis == "per-link":
                q = np.linalg.svd(effective.hbar[l, k], full_matrices=True)[0][:, :S]
            else:
                q = bases[k]
            raw = np.linalg.solve(reg, effective.hbar[l, k].conj().T @ q)
            norm = np.linalg.norm(raw)
            if norm < 1e-300:
                raw = np.zeros((N, S), complex)
                raw[:, 0] = effective.a[l, k].conj() / np.sqrt(N)
                norm = 1.0
            out[l, k] = np.sqrt(shares[k]) * raw / norm
    return out


def solve(effective: EffectiveChannel, constraints: PowerConstraintSet,
          params: SolverParams | None = None, initial: np.ndarray | None = None,
          num_streams: int | None = None):
    """Run the block-coordinate WMMSE design.

    Alternates MMSE combiners, inverse-MSE weights and per-satellite
    closed-form precoders whose multipliers come from bisection (single
    total-power constraint) or the central-cut ellipsoid method (general
    constraint families). A precoder column W[l, k, :, s] that is zero at
    the start stays exactly zero (its combiner column is zero and its MSE
    block the identity), which is how the streamwise mode restricts the
    design to its sparsity pattern. Returns (precoders, SolveTrace); the
    objective trace is non-increasing and the output satisfies every power
    constraint within the feasibility tolerance.
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

    for it in range(1, params.max_iters + 1):
        U = update_combiners(W, effective, noise)
        E_opt = mse_at_optimum(U, W, effective)
        C = update_weights(E_opt)

        iter_mus = []
        for l in range(L):
            if not W[l].any():
                # a silent satellite stays silent: its combiner columns,
                # hence its right-hand sides, are exactly zero
                iter_mus.append(np.zeros(constraints.num_constraints(l)))
                continue
            sub = _SatSubproblem(effective, U, C, l, S)
            tol_abs = params.power_tol_rel * float(constraints.caps[l].max())
            if constraints.identity[l]:
                rho = float(constraints.caps[l][0])
                mu = np.array([bisect_multiplier(
                    lambda m: sub.power_identity(m) - rho, tol_abs,
                    params.ellipsoid_alpha, params.max_doublings)])
                if mu[0] == 0.0 and sub.pinv_used():
                    trace.pinv_fallbacks += 1
                W[l] = sub.precoders_identity(float(mu[0]))
            else:
                ell = EllipsoidParams(alpha=params.ellipsoid_alpha, tol=tol_abs,
                                      max_iters=params.ellipsoid_max_iters,
                                      max_doublings=params.max_doublings)
                oracle = lambda mu: power_residuals(
                    sub.precoders_general(mu, constraints), constraints, l)
                mu = solve_multipliers(
                    lambda m: sub.precoders_general(m, constraints), oracle,
                    constraints.num_constraints(l), ell)
                W[l] = sub.precoders_general(mu, constraints)
            iter_mus.append(mu)

        mse_now = np.stack([mse_matrix(U[k], W, effective, k, noise)
                            for k in range(K)])
        obj = wmmse_objective(mse_now, C)
        trace.objective.append(obj)
        trace.multipliers.append(iter_mus)
        trace.max_residual.append(max(
            power_residuals(W[l], constraints, l).max() for l in range(L)))
        trace.iterations = it
        delta = prev_obj - obj
        prev_obj = obj
        if delta <= params.tol:
            trace.converged = True
            break

    _assert_feasible(W, constraints, params.power_tol_rel)
    return W, trace


def _assert_feasible(precoders, constraints, tol_rel):
    for l in range(constraints.num_sats):
        g = power_residuals(precoders[l], constraints, l)
        limit = tol_rel * float(constraints.caps[l].max())
        if g.max() > limit + 1e-12:
            raise NumericsError(
                f"satellite {l}: output violates a power constraint "
                f"(residual {g.max():.3e} > {limit:.3e})")
