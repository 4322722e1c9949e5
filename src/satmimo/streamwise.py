"""Streamwise transmission: each spatial stream is radiated by one satellite.

The aggregated per-user channel (all satellite blocks side by side) is
decomposed by an SVD; the squared norms of the per-satellite blocks of each
right singular vector give participation factors that say how much of each
transmit eigenmode lives on each satellite. Because every link is rank one,
that SVD is the SVD of the user's M x L link matrix (`channel.link_matrix`):
the factors are the squared moduli of its right vectors' entries, and the
stream directions are its left vectors. Streams ride the strongest
eigenmodes and are matched one-to-one to satellites by maximum-weight
bipartite matching on those factors. Precoding then runs the joint
weighted-MSE block-coordinate descent (`joint_wmmse.solve`) under the given
power-constraint set (any family the joint mode accepts), started from the
streamwise initialization, which is built in joint form. That start is the
support mask: a precoder column that is zero makes its combiner column zero
and its MSE block the identity, so the closed-form precoder update keeps
every entry off the assigned sparsity pattern exactly zero.
`solve_streamwise` checks that it did and returns the precoders in joint
form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import max_weight_assignment
from .channel import EffectiveChannel, link_matrix
from .errors import InfeasibleError, NumericsError, ValidationError
from .joint_wmmse import SolverParams
from .power import PowerConstraintSet
from . import joint_wmmse


@dataclass(frozen=True)
class StreamAssignment:
    """Stream -> satellite map pi (K, S) plus the per-satellite stream sets
    T[l] = [(k, s), ...]."""

    pi: np.ndarray
    sat_streams: tuple

    @classmethod
    def from_pi(cls, pi: np.ndarray, num_sats: int) -> "StreamAssignment":
        pi = np.asarray(pi, int)
        K, S = pi.shape
        if np.any((pi < 0) | (pi >= num_sats)):
            raise ValidationError(
                f"stream map entries must be satellites in [0, {num_sats})")
        for k in range(K):
            if len(set(pi[k])) != S:
                raise ValidationError(f"user {k}: stream map must be injective")
        sets = [[] for _ in range(num_sats)]
        for k in range(K):
            for s in range(S):
                sets[pi[k, s]].append((k, s))
        return cls(pi=pi, sat_streams=tuple(tuple(t) for t in sets))


def participation_factors(effective: EffectiveChannel):
    """Participation factors and stream directions of every user.

    One SVD per user of the link matrix C_k (M x L), which is the SVD of the
    aggregated channel (see `channel`). Returns (eta, directions): eta
    (L, K, r) with r = min(M, L) is |V_k[l, m]|^2, the fraction of eigenmode
    m of user k carried by satellite l (rows over satellites sum to one);
    directions (K, M, r) holds the left singular vectors, strongest first.
    """
    directions, _, vh = np.linalg.svd(link_matrix(effective), full_matrices=False)
    return np.abs(vh.transpose(2, 0, 1)) ** 2, directions


def associate(eta: np.ndarray, num_streams: int) -> StreamAssignment:
    """Assign stream s of each user (riding its s-th strongest eigenmode) to
    a distinct satellite, maximizing the summed participation factors."""
    L, K, modes = eta.shape
    S = num_streams
    if S > L:
        raise InfeasibleError(f"{S} streams need {S} distinct satellites, have {L}")
    if S > modes:
        raise InfeasibleError(
            f"only {modes} eigenmodes exist, cannot carry {S} streams")
    pi = np.stack([max_weight_assignment(eta[:, k, :S].T) for k in range(K)])
    return StreamAssignment.from_pi(pi, L)


def init_streamwise(effective: EffectiveChannel, constraints: PowerConstraintSet,
                    assignment: StreamAssignment,
                    directions: np.ndarray) -> np.ndarray:
    """Per-stream initialization in joint form (L, K, N, S): column s of
    W[l, k] is the regularized-MMSE response to user k's s-th aggregated
    eigen-direction directions[k][:, s] (from `participation_factors`) when
    pi_k(s) = l, else zero.

    Each satellite's assigned streams are `joint_wmmse.share_rule_blocks`
    of one column each, so the sqrt(beta) share counts assigned (user,
    stream) pairs with multiplicity and every satellite that carries a
    stream spends exactly its smallest cap min_x rho_{l,x}, as
    `joint_wmmse.init_precoders` does.
    """
    L, K, M, N = effective.shape
    S = assignment.pi.shape[1]
    W = np.zeros((L, K, N, S), complex)
    for l, streams in enumerate(assignment.sat_streams):
        if not streams:
            continue
        blocks = [(k, directions[k][:, s, None]) for k, s in streams]
        cols = joint_wmmse.share_rule_blocks(
            effective, l, float(constraints.caps[l].min()), blocks,
            effective.noise_power_w)
        for (k, s), col in zip(streams, cols):
            W[l, k, :, s] = col[:, 0]
    return W


def solve_streamwise(effective: EffectiveChannel, constraints: PowerConstraintSet,
                     params: SolverParams | None = None,
                     num_streams: int | None = None,
                     assignment: StreamAssignment | None = None):
    """Streamwise association plus precoder design under a constraint set.

    When no assignment is given, streams are matched to satellites by
    participation factors. The precoders come from
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

    eta, directions = participation_factors(effective)
    if assignment is None:
        assignment = associate(eta, S)

    start = init_streamwise(effective, constraints, assignment, directions)
    W, trace = joint_wmmse.solve(effective, constraints, params,
                                 initial=start, num_streams=S)
    off_support = np.ones((L, K, S), bool)
    for k in range(K):
        off_support[assignment.pi[k], k, np.arange(S)] = False
    if np.any(W.transpose(0, 1, 3, 2)[off_support]):
        raise NumericsError("streamwise precoders left their assigned satellites")
    return W, assignment, trace
