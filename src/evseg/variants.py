"""Alternative clustering back-ends sharing the warped-image machinery.

Two drop-in replacements for the layered solver's association rule, kept
for head-to-head comparison:

* a probabilistic mixture: each cluster's *unweighted* warped image,
  normalised to integrate to one over the sensor, acts as that component's
  spatial density; memberships follow from Bayes' rule with learned mixing
  weights, and motions climb the total log-likelihood.
* a fuzzy assignment: the affinity of event k to cluster j is
  log(1 + image value at its warped position), memberships follow the
  classic inverse-power rule with fuzziness b, and motions climb the
  membership-weighted affinity sum.

Both report the same result type as the layered solver and additionally
track the summed per-cluster sharpness so the three methods can be compared
on one scale.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .events import EventPacket
from .iwe import accumulate_unweighted, sample_local, smooth, variance_contrast
# initialize_greedy and objective run inside _alternate, and every image is
# built by cluster_image, so this module no longer calls accumulate_unweighted,
# smooth, variance_contrast or warp_packet; those names stay bound here
# because perfbench/tracing.py wraps each name in every module that binds it
from .solver import (
    ClusterSet,
    SegmentationResult,
    SolverConfig,
    _alternate,
    _line_search_step,
    cluster_image,
    initialize_greedy,
    objective,
)
from .warps import WarpParams, displacement_sensitivity, warp_packet


@dataclass
class MixtureState:
    """Clusters, per-event memberships and mixing weights of the mixture."""

    clusters: ClusterSet
    membership: np.ndarray      # (n_events, n_clusters), rows sum to 1
    mixing: np.ndarray          # (n_clusters,), sums to 1 over live clusters


@dataclass
class FuzzyState:
    """Clusters and fuzzy memberships with fuzziness exponent b."""

    clusters: ClusterSet
    membership: np.ndarray
    b: float


def _column_table(column, packet, clusters, config) -> np.ndarray:
    """(n_events, n_clusters) table of ``column(packet, params, config)``
    for each live cluster; dead clusters' columns stay zero."""
    table = np.zeros((packet.n, clusters.n_clusters))
    for j in np.flatnonzero(clusters.alive):
        table[:, j] = column(packet, clusters.params[j], config)
    return table


def component_likelihood(
    packet: EventPacket,
    params: WarpParams,
    config: SolverConfig,
) -> np.ndarray:
    """Per-event likelihood under one mixture component.

    The component's smoothed unweighted image, rescaled to integrate to one
    over the sensor, is read out at each event's warped position; values are
    floored at ``epsilon_c`` so events off the cluster's support keep a tiny
    but non-zero likelihood.
    """
    img, wx, wy = cluster_image(packet, params, np.ones(packet.n), config)
    total = img.total_mass
    values = sample_local(img, wx, wy)
    if total > 0.0:
        values = values / total
    return np.maximum(values, config.epsilon_c)


def mixture_e_step(
    state: MixtureState,
    packet: EventPacket,
    config: SolverConfig,
    likelihoods: np.ndarray | None = None,
) -> MixtureState:
    """Bayes membership refresh followed by the mixing-weight update
    (mixing weight = mean membership)."""
    clusters = state.clusters
    if likelihoods is None:
        likelihoods = _column_table(component_likelihood, packet, clusters, config)
    weighted = likelihoods * state.mixing
    rowsum = weighted.sum(axis=1, keepdims=True)
    membership = np.zeros_like(weighted)
    np.divide(weighted, rowsum, out=membership, where=rowsum > 0.0)
    uniform_rows = rowsum[:, 0] <= 0.0
    if uniform_rows.any():
        alive_idx = np.flatnonzero(clusters.alive)
        membership[np.ix_(uniform_rows, alive_idx)] = 1.0 / alive_idx.size
    mixing = membership.mean(axis=0)
    return MixtureState(clusters.copy(), membership, mixing)


def _log_likelihood(likelihoods: np.ndarray, mixing: np.ndarray) -> float:
    mix = np.maximum((likelihoods * mixing).sum(axis=1), 1e-300)
    return float(np.log(mix).sum())


def mixture_m_step(
    state: MixtureState,
    packet: EventPacket,
    config: SolverConfig,
    likelihoods: np.ndarray,
) -> tuple[MixtureState, np.ndarray]:
    """One backtracking ascent step of the total log-likelihood per live
    cluster, updating one component at a time.  ``likelihoods`` is the table
    at the current motions (the one the E-step used).  Returns the new state
    plus the refreshed likelihood table (``likelihoods`` itself when no motion
    improved)."""
    clusters = state.clusters.copy()
    for j in np.flatnonzero(clusters.alive):
        kappa = displacement_sensitivity(packet, clusters.params[j], config.fd_step)
        table = likelihoods.copy()

        def evaluate(candidate: WarpParams, _j=j, _table=table) -> float:
            _table[:, _j] = component_likelihood(packet, candidate, config)
            return _log_likelihood(_table, state.mixing)

        new_prm, _, improved = _line_search_step(
            evaluate, clusters.params[j], kappa, config
        )
        if improved:
            # the accepted candidate was evaluated last, so its column is in table
            clusters.params[j] = new_prm
            likelihoods = table
    return MixtureState(clusters, state.membership, state.mixing), likelihoods


def fuzzy_affinity(
    packet: EventPacket,
    params: WarpParams,
    config: SolverConfig,
) -> np.ndarray:
    """Per-event affinity log(1 + image value) under one motion; zero where
    the warped position lands on empty pixels."""
    img, wx, wy = cluster_image(packet, params, np.ones(packet.n), config)
    return np.log1p(np.maximum(sample_local(img, wx, wy), 0.0))


def fuzzy_e_step(
    state: FuzzyState,
    packet: EventPacket,
    config: SolverConfig,
    affinities: np.ndarray | None = None,
) -> FuzzyState:
    """Inverse-power membership refresh: p_kj proportional to
    affinity^(1/(b-1)); all-zero rows become uniform over live clusters."""
    clusters = state.clusters
    if affinities is None:
        affinities = _column_table(fuzzy_affinity, packet, clusters, config)
    powed = np.zeros_like(affinities)
    alive_idx = np.flatnonzero(clusters.alive)
    powed[:, alive_idx] = affinities[:, alive_idx] ** (1.0 / (state.b - 1.0))
    rowsum = powed.sum(axis=1, keepdims=True)
    membership = np.zeros_like(powed)
    np.divide(powed, rowsum, out=membership, where=rowsum > 0.0)
    zero_rows = rowsum[:, 0] <= 0.0
    if zero_rows.any():
        membership[np.ix_(zero_rows, alive_idx)] = 1.0 / alive_idx.size
    return FuzzyState(clusters.copy(), membership, state.b)


def fuzzy_m_step(
    state: FuzzyState,
    packet: EventPacket,
    config: SolverConfig,
    affinities: np.ndarray,
) -> tuple[FuzzyState, np.ndarray]:
    """One backtracking ascent step per live cluster of its
    membership-weighted affinity sum, sum_k p_kj^b a_kj.  ``affinities`` is
    the table at the current motions (the one the E-step used).  Returns the
    new state plus the refreshed affinity table."""
    clusters = state.clusters.copy()
    affinities = affinities.copy()
    for j in np.flatnonzero(clusters.alive):
        kappa = displacement_sensitivity(packet, clusters.params[j], config.fd_step)
        pw = state.membership[:, j] ** state.b
        last = [None]

        def evaluate(candidate: WarpParams, _pw=pw, _last=last) -> float:
            _last[0] = fuzzy_affinity(packet, candidate, config)
            return float((_pw * _last[0]).sum())

        new_prm, _, improved = _line_search_step(
            evaluate, clusters.params[j], kappa, config
        )
        if improved:
            # the accepted candidate was evaluated last
            clusters.params[j] = new_prm
            affinities[:, j] = last[0]
    return FuzzyState(clusters, state.membership, state.b), affinities


def segment_mixture(
    packet: EventPacket,
    n_clusters: int,
    models="flow2",
    config: SolverConfig | None = None,
    init=None,
    early_stop: bool = True,
) -> SegmentationResult:
    """Mixture-density clustering of one packet; see module docstring.  The
    own objective is the total log-likelihood."""
    mixing, table = None, None

    def step(packet, clusters, membership, config):
        nonlocal mixing, table
        if table is None:
            mixing = membership.mean(axis=0)
            mixing = mixing / mixing.sum()
            table = _column_table(component_likelihood, packet, clusters, config)
        state = MixtureState(clusters, membership, mixing)
        # the E-step's likelihood table is the M-step's starting table
        state = mixture_e_step(state, packet, config, table)
        state, table = mixture_m_step(state, packet, config, table)
        mixing = state.mixing
        return state.clusters, state.membership, _log_likelihood(table, mixing)

    result = _alternate(packet, n_clusters, models, config, init, early_stop, "mixture", step)
    result.diagnostics["mixing"] = mixing.copy()
    return result


def segment_fuzzy(
    packet: EventPacket,
    n_clusters: int,
    models="flow2",
    config: SolverConfig | None = None,
    init=None,
    b: float = 2.0,
    early_stop: bool = True,
) -> SegmentationResult:
    """Fuzzy-membership clustering of one packet; see module docstring.  The
    own objective is the membership-weighted affinity sum."""
    if b <= 1.0:
        raise ValueError("fuzziness b must exceed 1")
    table = None

    def step(packet, clusters, membership, config):
        nonlocal table
        if table is None:
            table = _column_table(fuzzy_affinity, packet, clusters, config)
        state = fuzzy_e_step(FuzzyState(clusters, membership, b), packet, config, table)
        state, table = fuzzy_m_step(state, packet, config, table)
        return state.clusters, state.membership, float(((state.membership**b) * table).sum())

    return _alternate(packet, n_clusters, models, config, init, early_stop, "fuzzy", step)
