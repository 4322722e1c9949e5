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
streamwise initialization: `joint_wmmse.share_rule`, the builder of every
closed form, on the stream directions masked by the assignment's support
(`StreamAssignment.support`, (L, K, S), derived from the map in one
place). That start is the support mask of the whole solve: a precoder
column that is zero makes its combiner column zero and its MSE block the
identity, so the closed-form precoder update keeps every entry off the
support exactly zero. `solve_streamwise` checks that it did, against the
same mask, and returns the precoders in joint form.
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
    """Stream -> satellite map pi (K, S) plus its support (L, K, S):
    support[l, k, s] is True exactly when pi[k, s] = l."""

    pi: np.ndarray
    support: np.ndarray

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
        return cls(pi=pi, support=np.arange(num_sats)[:, None, None] == pi)


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

    It is `joint_wmmse.share_rule` on those directions masked by the
    assignment's support, so the sqrt(beta) share runs over the users a
    satellite carries a stream of, and every satellite that carries one
    spends exactly its smallest cap min_x rho_{l,x}, as
    `joint_wmmse.init_precoders` does.
    """
    S = assignment.pi.shape[1]
    bases = np.where(assignment.support[:, :, None, :], directions[..., :S], 0.0)
    return joint_wmmse.share_rule(effective, [c.min() for c in constraints.caps],
                                  bases, effective.noise_power_w)


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
    if assignment is not None and assignment.support.shape != (L, K, S):
        raise ValidationError(f"assignment support shape {assignment.support.shape} "
                              f"does not match (L, K, S)=({L}, {K}, {S})")

    eta, directions = participation_factors(effective)
    if assignment is None:
        assignment = associate(eta, S)

    start = init_streamwise(effective, constraints, assignment, directions)
    W, trace = joint_wmmse.solve(effective, constraints, params,
                                 initial=start, num_streams=S)
    if np.any(W.transpose(0, 1, 3, 2)[~assignment.support]):
        raise NumericsError("streamwise precoders left their assigned satellites")
    return W, assignment, trace
