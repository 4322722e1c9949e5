import numpy as np
import pytest

from satmimo.channel import EffectiveChannel


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def synthetic_effective(rng, L=3, K=2, M=4, N=6, noise=0.5, beta_range=(0.5, 2.0),
                        kappa=15.8):
    """Random rank-one effective channels at O(1) scales for solver tests,
    with Rician factor kappa on every link."""
    b = crandn(rng, L, K, M)
    a = crandn(rng, L, K, N)
    beta = rng.uniform(*beta_range, size=(L, K))
    return EffectiveChannel(b=b, a=a, beta=beta, kappa=np.full((L, K), kappa),
                            noise_power_w=noise)


def dense_links(effective):
    """Reference dense links Hb_{l,k} = sqrt(beta_{l,k}) b_{l,k} a_{l,k}^T,
    shape (L, K, M, N)."""
    return np.sqrt(effective.beta)[..., None, None] * np.einsum(
        "lkm,lkn->lkmn", effective.b, effective.a)


def dense_aggregate(effective):
    """Reference aggregated channels (K, M, L*N): user k's L dense link
    blocks side by side."""
    L, K, M, N = effective.shape
    return dense_links(effective).transpose(1, 2, 0, 3).reshape(K, M, L * N)


def dense_eigenmodes(effective):
    """Reference participation factors from the economy SVD of every dense
    aggregate: (eta, left) with eta (L, K, r) the squared norm of block l of
    right singular vector m, and left (K, M, r) the left singular vectors,
    r = min(M, L*N)."""
    L, K, M, N = effective.shape
    left, _, vh = np.linalg.svd(dense_aggregate(effective), full_matrices=False)
    blocks = vh.reshape(K, -1, L, N)
    eta = np.einsum("kmln,kmln->lkm", blocks.conj(), blocks).real
    return eta, left


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def default_config():
    from satmimo import ScenarioConfig
    return ScenarioConfig()


@pytest.fixture
def default_links(default_config):
    from satmimo import sample_geometry
    return sample_geometry(default_config, np.random.default_rng(0))


@pytest.fixture
def default_effective(default_config, default_links):
    from satmimo import effective_channels
    return effective_channels(default_links, default_config)


def dense_exact_se(precoders, effective, trials, rng):
    """Reference Monte-Carlo evaluator: per-trial dense stream matrices,
    einsum Grams for every user and batched Cholesky log-dets, with beta,
    kappa and the noise power of the channel. Returns the per-trial SE in
    bits, shape (K, T)."""
    from satmimo.channel import sample_gamma
    L, K, M, N = effective.shape
    noise = effective.noise_power_w
    gamma = sample_gamma(effective.beta, effective.kappa, rng, trials=trials)
    out = np.empty((K, trials))
    for k in range(K):
        mats = _dense_stream_mats(precoders, effective, k)      # (K, L, M, S)
        d = np.einsum("tl,ilms->tims", gamma[:, :, k], mats)   # (T, K, M, S)
        grams = np.einsum("tims,tins->timn", d, d.conj())      # (T, K, M, M)
        total = grams.sum(axis=1) + noise * np.eye(M)
        interf = total - grams[:, k]
        out[k] = (_chol_logdet(total) - _chol_logdet(interf)) / np.log(2.0)
    return out


def dense_approx_se(precoders, effective):
    """Reference approximation: per-link Grams scaled by beta, (K,)."""
    L, K, M, N = effective.shape
    noise = effective.noise_power_w
    out = np.empty(K)
    for k in range(K):
        mats = _dense_stream_mats(precoders, effective, k)
        mats = mats * np.sqrt(effective.beta[:, k])[None, :, None, None]
        grams = np.einsum("ilms,ilns->imn", mats, mats.conj())  # (K, M, M)
        total = grams.sum(axis=0) + noise * np.eye(M)
        interf = total - grams[k]
        out[k] = (_chol_logdet(total) - _chol_logdet(interf)) / np.log(2.0)
    return out


def _dense_stream_mats(precoders, effective, k):
    """(K, L, M, S) with entry [i, l] = b_{l,k} (a_{l,k}^T W_{l,i})."""
    rows = np.einsum("ln,lins->lis", effective.a[:, k], precoders)
    return np.einsum("lm,lis->ilms", effective.b[:, k], rows)


def _chol_logdet(mats):
    chol = np.linalg.cholesky(mats)
    idx = np.arange(mats.shape[-1])
    return 2.0 * np.sum(np.log(np.real(chol[..., idx, idx])), axis=-1)


def one_wmmse_iteration(eff, cons, W0, S):
    """One iteration of joint_wmmse.solve from W0, and the receiver state at
    W0 its precoder step saw: (W1, first multiplier per satellite, trace, U,
    C)."""
    from satmimo import joint_wmmse
    W1, trace = joint_wmmse.solve(eff, cons, joint_wmmse.SolverParams(max_iters=1),
                                  initial=W0, num_streams=S)
    J, G = joint_wmmse._receiver_grams(W0, eff, eff.noise_power_w)
    U = np.linalg.solve(J, G)
    C = joint_wmmse.update_weights(joint_wmmse._mse_at_optimum(U, G))[0]
    mus = [float(m[0]) for m in trace.multipliers[0]]
    return W1, mus, trace, U, C


def precoder_step(eff, U, C, S):
    """joint_wmmse._PrecoderStep for combiners U and weights C over all L*S
    effective streams, on the channel's own transmit basis, as an iteration
    of solve builds it."""
    from satmimo import joint_wmmse
    L, K = eff.shape[:2]
    blocks = joint_wmmse._block_index(
        np.broadcast_to(np.arange(L * S), (K, L * S)), L, K, S)
    return joint_wmmse._PrecoderStep(eff, U, C, joint_wmmse._TransmitBasis(eff),
                                     blocks)


def dense_subproblem(step, l):
    """Dense reference of satellite l's precoder subproblem, built from the
    arrays of a joint_wmmse._PrecoderStep: T = F F^H (N, N) with F =
    step.factor[l], the right-hand sides B_k = rhs_dir_k rhs_row_k^T stacked
    (K, N, S), and the objective sum_k Tr(W_k^H T W_k) - 2 Re Tr(B_k^H W_k)
    of (K, N, S) precoders."""
    F = step.factor[l]
    T = F @ F.conj().T
    B = np.einsum("kn,ks->kns", step.rhs_dir[l], step.rhs_row[l])

    def objective(W):
        quad = np.einsum("kns,nm,kms->", W.conj(), T, W).real
        return float(quad - 2.0 * np.vdot(B, W).real)

    return T, B, objective


def assert_precoder_kkt(eff, cons, U, C, W1, mus, l, power_tol_rel=1e-5):
    """Closed-form KKT conditions of satellite l's total-power subproblem,
    with T = sum_i Hb_{l,i}^H U_i C_i U_i^H Hb_{l,i} and
    B_k = Hb_{l,k}^H (U_k C_k)[:, block l] built densely from the channel:
    stationarity T W_k + mu W_k - B_k = 0 for every user, complementary
    slackness mu (p - rho) = 0 and feasibility p <= rho (1 + tol)."""
    S = W1.shape[-1]
    K = W1.shape[1]
    hb = dense_links(eff)[l]
    T = sum(hb[i].conj().T @ U[i] @ C[i] @ U[i].conj().T @ hb[i] for i in range(K))
    mu, rho = mus[l], float(cons.caps[l][0])
    for k in range(K):
        B = hb[k].conj().T @ (U[k] @ C[k])[:, l * S:(l + 1) * S]
        W = W1[l, k]
        scale = np.linalg.norm(T, 2) * np.linalg.norm(W) + mu * np.linalg.norm(W) \
            + np.linalg.norm(B)
        resid = T @ W + mu * W - B
        assert np.linalg.norm(resid) <= 1e-10 * max(scale, 1e-300)
    p = float(np.sum(np.abs(W1[l]) ** 2))
    assert mu >= 0.0
    assert mu * abs(p - rho) <= 1e-10 * mu * rho
    assert p <= rho * (1 + power_tol_rel)


def bisect_multiplier(residual_fn, tol: float, alpha: float = 2.0,
                      max_doublings: int = 60) -> float:
    """Independent scalar oracle: smallest mu >= 0 with residual_fn(mu) <= 0,
    to 1e-15 relative.

    residual_fn maps a scalar multiplier to (power - cap) and must decrease
    in mu. mu = 0 when already feasible; otherwise mu = 1 is scaled by alpha
    until feasible and [0, mu] is bisected. Raises InfeasibleError when no
    feasible mu is found within max_doublings, and NumericsError when the
    residual at the returned mu is not within tol.
    """
    from satmimo import InfeasibleError, NumericsError
    if residual_fn(0.0) <= 0:
        return 0.0
    hi = 1.0
    for _ in range(max_doublings + 1):
        if residual_fn(hi) <= 0:
            break
        hi *= alpha
    else:
        raise InfeasibleError("geometric expansion found no feasible multiplier")
    lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if residual_fn(mid) > 0:
            lo = mid
        else:
            hi = mid
    residual = residual_fn(hi)
    if not residual <= tol:
        raise NumericsError(f"bisection ended at residual {residual:.3e}")
    return hi


def mp_rician_errors(beta, kappa, u, x, y, *gains):
    """|g - gamma| entry by entry for each (T, P) array g of gains, gamma
    the Rician gain sqrt(beta) (sqrt(kappa / (kappa + 1)) e^{2 pi i u}
    + (x + i y) / sqrt(2 (kappa + 1))) evaluated at 50 digits from the float
    inputs: beta and kappa (P,) of the pairs, u, x and y (T, P) their
    variates."""
    import mpmath as mp
    errors = [np.empty(g.shape) for g in gains]
    with mp.workdps(50):
        for p in range(u.shape[1]):
            b, kp = mp.mpf(float(beta[p])), mp.mpf(float(kappa[p]))
            los, nlos = mp.sqrt(b * kp / (kp + 1)), mp.sqrt(b / (2 * (kp + 1)))
            for t in range(u.shape[0]):
                exact = (los * mp.expjpi(2 * mp.mpf(float(u[t, p])))
                         + nlos * mp.mpc(float(x[t, p]), float(y[t, p])))
                for g, err in zip(gains, errors):
                    err[t, p] = float(abs(mp.mpc(complex(g[t, p])) - exact))
    return errors


def mp_user_se(precoders, effective, k, gains=None):
    """SE of user k in bits from a 50-digit mpmath log det, every product
    formed from the float inputs in mpmath. With gains (L,), user k's link
    gains of one trial, the per-trial SE; without, the approximation, whose
    Grams take E[gamma gamma^H] = diag(beta)."""
    import mpmath as mp
    L, K, M, N = effective.shape
    S = precoders.shape[-1]

    def mpc(z):
        return mp.mpc(float(z.real), float(z.imag))

    with mp.workdps(50):
        a = [[mpc(x) for x in effective.a[l, k]] for l in range(L)]
        b = [mp.matrix([mpc(x) for x in effective.b[l, k]]) for l in range(L)]
        total = mp.eye(M) * effective.noise_power_w
        for i in range(K):
            gram = mp.zeros(M, M)
            for s in range(S):
                rows = [mp.fsum(a[l][n] * mpc(precoders[l, i, n, s])
                                for n in range(N)) for l in range(L)]
                if gains is None:
                    for l in range(L):
                        gram += (effective.beta[l, k] * abs(rows[l]) ** 2
                                 * b[l] * b[l].H)
                else:
                    col = sum((mpc(gains[l]) * rows[l] * b[l]
                               for l in range(L)), mp.zeros(M, 1))
                    gram += col * col.H
            total += gram
            if i == k:
                own = gram
        interf = total - own
        return float((mp.log(mp.det(total)) - mp.log(mp.det(interf))).real
                     / mp.log(2))
