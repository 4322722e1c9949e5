"""Streamwise transmission: each spatial stream is radiated by one satellite.

The aggregated per-user channel (all satellite blocks side by side) is
decomposed by an economy SVD; the squared norms of the per-satellite blocks
of each right singular vector give participation factors that say how much
of each transmit eigenmode lives on each satellite. Streams ride the
strongest eigenmodes and are matched one-to-one to satellites by
maximum-weight bipartite matching on those factors. Precoding then runs the
joint weighted-MSE block-coordinate descent (`joint_wmmse.solve`) under the
given power-constraint set (any family the joint mode accepts), started
from the streamwise initialization, which is built in joint form. That
start is the support mask: a precoder column that is zero makes its
combiner column zero and its MSE block the identity, so the closed-form
precoder update keeps every entry off the assigned sparsity pattern exactly
zero. `solve_streamwise` checks that it did and returns the precoders in
joint form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import max_weight_assignment
from .channel import EffectiveChannel, aggregate_all
from .errors import InfeasibleError, NumericsError, ValidationError
from .joint_wmmse import SolverParams
from .power import PowerConstraintSet
from . import joint_wmmse


@dataclass(frozen=True)
class EigenStructure:
    """Economy SVD of every user's aggregated channel.

    singular_values: (K, M) descending; right_vectors: (K, L*N, M) with
    column m the m-th transmit eigenmode across all satellite arrays.
    """

    singular_values: np.ndarray
    right_vectors: np.ndarray


@dataclass(frozen=True)
class StreamAssignment:
    """Stream -> satellite map pi (K, S) plus the per-satellite stream sets
    T[l] = [(k, s), ...] and the participation factors it was built from."""

    pi: np.ndarray
    sat_streams: tuple
    eta: np.ndarray          # (L, K, M)

    @classmethod
    def from_pi(cls, pi: np.ndarray, num_sats: int,
                eta: np.ndarray | None = None) -> "StreamAssignment":
        pi = np.asarray(pi, int)
        K, S = pi.shape
        for k in range(K):
            if len(set(pi[k])) != S:
                raise ValidationError(f"user {k}: stream map must be injective")
        sets = [[] for _ in range(num_sats)]
        for k in range(K):
            for s in range(S):
                sets[pi[k, s]].append((k, s))
        if eta is None:
            eta = np.zeros((num_sats, K, 0))
        return cls(pi=pi, sat_streams=tuple(tuple(t) for t in sets), eta=eta)


def participation_factors(aggregated: np.ndarray, num_sats: int):
    """Participation factors and eigenstructure of the aggregated channels.

    aggregated: (K, M, L*N). Returns (eta, EigenStructure) with eta of shape
    (L, K, M): the fraction of eigenmode m of user k carried by satellite l.
    Rows over satellites sum to one for every (user, mode).
    """
    agg = np.asarray(aggregated)
    if agg.ndim == 2:
        agg = agg[None]
    K, M, LN = agg.shape
    if LN % num_sats:
        raise ValidationError("aggregated channel width must be L*N")
    if LN < M:
        raise ValidationError("participation factors need L*N >= M")
    n = LN // num_sats
    svals = np.empty((K, M))
    vecs = np.empty((K, LN, M), complex)
    for k in range(K):
        _, s, vh = np.linalg.svd(agg[k], full_matrices=False)
        svals[k] = s
        vecs[k] = vh.conj().T
    blocks = vecs.reshape(K, num_sats, n, M)
    eta = np.einsum("klnm,klnm->lkm", blocks.conj(), blocks).real
    return eta, EigenStructure(singular_values=svals, right_vectors=vecs)


def sat_selection_score(eta: np.ndarray, singular_values: np.ndarray) -> np.ndarray:
    """Power-weighted satellite scores (L, K): sum_m sigma_m^2 eta_{l,k,m}."""
    return np.einsum("km,lkm->lk", singular_values ** 2, eta)


def select_serving_sats(eta: np.ndarray, singular_values: np.ndarray,
                        count: int) -> list:
    """Per-user serving subsets: the `count` satellites with the largest
    power-weighted score, in ascending satellite order."""
    scores = sat_selection_score(eta, singular_values)
    L, K = scores.shape
    if count > L:
        raise ValidationError("cannot preselect more satellites than exist")
    return [np.sort(np.argsort(-scores[:, k], kind="stable")[:count])
            for k in range(K)]


def associate(eta: np.ndarray, num_streams: int,
              serving_sets: list | None = None) -> StreamAssignment:
    """Assign stream s of each user (riding its s-th strongest eigenmode) to
    a distinct satellite, maximizing the summed participation factors."""
    L, K, M = eta.shape
    S = num_streams
    if S > M:
        raise InfeasibleError(f"only {M} eigenmodes exist, cannot carry {S} streams")
    if S > L:
        raise InfeasibleError(f"{S} streams need {S} distinct satellites, have {L}")
    pi = np.empty((K, S), int)
    for k in range(K):
        sats = np.arange(L) if serving_sets is None else np.asarray(serving_sets[k])
        weights = eta[sats, k, :S].T          # (S, len(sats))
        pi[k] = sats[max_weight_assignment(weights)]
    return StreamAssignment.from_pi(pi, L, eta)


def init_streamwise(effective: EffectiveChannel, constraints: PowerConstraintSet,
                    assignment: StreamAssignment, eig: EigenStructure,
                    aggregated: np.ndarray) -> np.ndarray:
    """Per-stream initialization in joint form (L, K, N, S): column s of
    W[l, k] is the regularized-MMSE response to user k's s-th aggregated
    eigen-direction when pi_k(s) = l, else zero.

    Each satellite's assigned streams are `joint_wmmse.share_rule_blocks`
    of one column each, so the sqrt(beta) share counts assigned (user,
    stream) pairs with multiplicity and every satellite that carries a
    stream spends exactly its smallest cap min_x rho_{l,x}, as
    `joint_wmmse.init_precoders` does. aggregated (K, M, L*N) and eig are
    the aggregated channels and their eigenstructure (from
    `participation_factors`).
    """
    L, K, M, N = effective.shape
    S = assignment.pi.shape[1]
    W = np.zeros((L, K, N, S), complex)
    for l, streams in enumerate(assignment.sat_streams):
        if not streams:
            continue
        blocks = [(k, _left_vector(aggregated, eig, k, s)[:, None])
                  for k, s in streams]
        cols = joint_wmmse.share_rule_blocks(
            effective, l, float(constraints.caps[l].min()), blocks,
            effective.noise_power_w)
        for (k, s), col in zip(streams, cols):
            W[l, k, :, s] = col[:, 0]
    return W


def _left_vector(agg, eig, k, s):
    # left singular vector of mode s: Hb_k v / sigma
    sigma = eig.singular_values[k, s]
    if sigma <= 0:
        return np.zeros(agg.shape[1], complex)
    return agg[k] @ eig.right_vectors[k][:, s] / sigma


def solve_streamwise(effective: EffectiveChannel, constraints: PowerConstraintSet,
                     params: SolverParams | None = None,
                     num_streams: int | None = None,
                     assignment: StreamAssignment | None = None,
                     preselect: int | None = None):
    """Streamwise association plus precoder design under a constraint set.

    When no assignment is given, streams are matched to satellites by
    participation factors (optionally after preselecting the `preselect`
    best-scoring satellites per user). The precoders come from
    `joint_wmmse.solve` under `constraints`, started at the joint-form
    streamwise initialization, which keeps them on the assignment's
    support. Returns (W, StreamAssignment, SolveTrace) with W the joint-form
    precoders (L, K, N, S); raises NumericsError if an entry off the
    support is not zero.
    """
    L, K, M, N = effective.shape
    S = num_streams if num_streams is not None else min(M, L)
    if assignment is not None and assignment.pi.shape != (K, S):
        raise ValidationError(
            f"assignment shape {assignment.pi.shape} does not match (K, S)=({K}, {S})")

    aggregated = aggregate_all(effective)
    eta, eig = participation_factors(aggregated, L)
    if assignment is None:
        sets = None
        if preselect is not None:
            sets = select_serving_sats(eta, eig.singular_values, preselect)
        assignment = associate(eta, S, serving_sets=sets)

    start = init_streamwise(effective, constraints, assignment, eig, aggregated)
    W, trace = joint_wmmse.solve(effective, constraints, params,
                                 initial=start, num_streams=S)
    off_support = np.ones((L, K, S), bool)
    for k in range(K):
        off_support[assignment.pi[k], k, np.arange(S)] = False
    if np.any(W.transpose(0, 1, 3, 2)[off_support]):
        raise NumericsError("streamwise precoders left their assigned satellites")
    return W, assignment, trace
