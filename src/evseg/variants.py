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

Both follow the layered solver's line search and settle rule; a settled
cluster keeps its column of the per-event table, so it costs no build in
the motion step.  The mixture searches in pixel units as the layered solver
does; the fuzzy M-step keeps greedy init's native-unit differences.  Their
per-event tables are column-major, as the layered solver's are.  Both
report the same result type as the layered solver and additionally track
the summed per-cluster sharpness so the three methods can be compared on
one scale.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .events import EventPacket
from .iwe import accumulate_unweighted, sample_local, smooth, variance_contrast
# initialize_greedy runs inside _alternate and every image is built by
# cluster_image, so this module no longer calls accumulate_unweighted, smooth,
# variance_contrast or warp_packet; those names stay bound here
# because perfbench/tracing.py wraps each name in every module that binds it
from .solver import (
    EPSILON_C,
    FD_STEP,
    ClusterSet,
    SegmentationResult,
    SolverConfig,
    _alternate,
    _column_sums,
    _line_search_step,
    _normalize_rows,
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
    for each live cluster, each computed in its place; dead clusters'
    columns stay zero."""
    table = np.zeros((packet.n, clusters.n_clusters), order="F")
    for j in np.flatnonzero(clusters.alive):
        column(packet, clusters.params[j], config, out=table[:, j])
    return table


@functools.lru_cache(maxsize=2)
def _unit_weights(n: int) -> np.ndarray:
    """All-ones weights for ``n`` events: every event's full mass, as the
    unweighted images of both variants deposit it.  Read-only, because
    every build of a packet that size shares it."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


def component_likelihood(
    packet: EventPacket,
    params: WarpParams,
    config: SolverConfig,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-event likelihood under one mixture component.

    The component's smoothed unweighted image, rescaled to integrate to one
    over the sensor, is read out at each event's warped position; values are
    floored at ``EPSILON_C`` so events off the cluster's support keep a tiny
    but non-zero likelihood.  Computed in ``out`` (a table column, say) if
    given, else in a fresh array.
    """
    img, wx, wy = cluster_image(packet, params, _unit_weights(packet.n), config)
    total = img.total_mass
    values = sample_local(img, wx, wy, out=out)
    if total > 0.0:
        values /= total
    return np.maximum(values, EPSILON_C, out=values)


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
    membership = _normalize_rows(likelihoods * state.mixing, clusters.alive)
    mixing = _column_sums(membership) / membership.shape[0]
    return MixtureState(clusters.copy(), membership, mixing)


def _log_likelihood(likelihoods: np.ndarray, mixing: np.ndarray) -> float:
    mix = np.maximum((likelihoods * mixing).sum(axis=1), 1e-300)
    return float(np.log(mix).sum())


def mixture_m_step(
    state: MixtureState,
    packet: EventPacket,
    config: SolverConfig,
    likelihoods: np.ndarray,
    settled: np.ndarray,
) -> tuple[MixtureState, np.ndarray]:
    """One backtracking ascent step of the total log-likelihood per live
    cluster not marked in ``settled``, updating one component at a time; a
    cluster whose line search fails gets marked.  ``likelihoods`` is the
    table at the current motions (the one the E-step used).  Returns the new
    state plus the refreshed likelihood table."""
    clusters = state.clusters.copy()
    likelihoods = np.copy(likelihoods)     # np.copy keeps the column-major order
    for j in np.flatnonzero(clusters.alive & ~settled):
        kappa = displacement_sensitivity(packet, clusters.params[j])
        trial = np.copy(likelihoods)

        # each candidate's column is computed in the trial table; an accepted
        # candidate is the line search's last, so its column is still there
        def evaluate(candidate: WarpParams, _j=j, _trial=trial) -> tuple[float, np.ndarray]:
            column = component_likelihood(packet, candidate, config, out=_trial[:, _j])
            return _log_likelihood(_trial, state.mixing), column

        f0 = _log_likelihood(likelihoods, state.mixing)
        clusters.params[j], _, likelihoods[:, j], improved = _line_search_step(
            evaluate, clusters.params[j], kappa, config, f0, likelihoods[:, j]
        )
        settled[j] = not improved
    return MixtureState(clusters, state.membership, state.mixing), likelihoods


def fuzzy_affinity(
    packet: EventPacket,
    params: WarpParams,
    config: SolverConfig,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-event affinity log(1 + image value) under one motion; zero where
    the warped position lands on empty pixels.  Computed in ``out`` (a
    table column, say) if given, else in a fresh array."""
    img, wx, wy = cluster_image(packet, params, _unit_weights(packet.n), config)
    values = sample_local(img, wx, wy, out=out)
    return np.log1p(np.maximum(values, 0.0, out=values), out=values)


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
    return FuzzyState(clusters.copy(), _normalize_rows(powed, clusters.alive), state.b)


def fuzzy_m_step(
    state: FuzzyState,
    packet: EventPacket,
    config: SolverConfig,
    affinities: np.ndarray,
    settled: np.ndarray,
) -> tuple[FuzzyState, np.ndarray]:
    """One backtracking ascent step of its membership-weighted affinity sum,
    sum_k p_kj^b a_kj, per live cluster not marked in ``settled``; a cluster
    whose line search fails gets marked.  ``affinities`` is the table at the
    current motions (the one the E-step used).  Returns the new state plus
    the refreshed affinity table."""
    clusters = state.clusters.copy()
    affinities = np.copy(affinities)
    # each candidate's column is computed here; an accepted candidate is the
    # line search's last, so its column is still here when it returns
    column = np.empty(packet.n)
    for j in np.flatnonzero(clusters.alive & ~settled):
        kappa = displacement_sensitivity(packet, clusters.params[j])
        pw = state.membership[:, j] ** state.b

        def evaluate(candidate: WarpParams, _pw=pw) -> tuple[float, np.ndarray]:
            fuzzy_affinity(packet, candidate, config, out=column)
            return float((_pw * column).sum()), column

        f0 = float((pw * affinities[:, j]).sum())
        # native-unit differences, not the pixel-unit default: with those
        # the slow cluster climbs onto the fast motion on the two-strip scene
        clusters.params[j], _, affinities[:, j], improved = _line_search_step(
            evaluate, clusters.params[j], kappa, config, f0, affinities[:, j], FD_STEP, 0.0
        )
        settled[j] = not improved
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

    def step(packet, clusters, membership, config, settled):
        nonlocal mixing, table
        if table is None:
            mixing = _column_sums(membership) / membership.shape[0]
            mixing = mixing / mixing.sum()
            table = _column_table(component_likelihood, packet, clusters, config)
        state = MixtureState(clusters, membership, mixing)
        # the E-step's likelihood table is the M-step's starting table
        state = mixture_e_step(state, packet, config, table)
        state, table = mixture_m_step(state, packet, config, table, settled)
        mixing = state.mixing
        sharpness = objective(packet, state.clusters, state.membership, config)
        return state.clusters, state.membership, sharpness, _log_likelihood(table, mixing)

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
    if not 1.0 < b < np.inf:
        raise ValueError("fuzziness b must be finite and exceed 1")
    table = None

    def step(packet, clusters, membership, config, settled):
        nonlocal table
        if table is None:
            table = _column_table(fuzzy_affinity, packet, clusters, config)
        state = fuzzy_e_step(FuzzyState(clusters, membership, b), packet, config, table)
        state, table = fuzzy_m_step(state, packet, config, table, settled)
        # numpy sums a whole table in memory order, so the product is made
        # C-ordered to keep the sum's last bits
        weighted = np.power(state.membership, b, order="C")
        own = float(np.multiply(weighted, table, out=weighted).sum())
        sharpness = objective(packet, state.clusters, state.membership, config)
        return state.clusters, state.membership, sharpness, own

    return _alternate(packet, n_clusters, models, config, init, early_stop, "fuzzy", step)
