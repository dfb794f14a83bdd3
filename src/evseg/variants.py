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

Each E-step maps its per-event table to memberships and builds nothing.
Both M-steps are one pass of the layered solver's step loop through one
column step (:func:`_column_m_step`), so they share its line search and
settle rule and add only their value of a candidate column; like
``solver.ascend_motion`` they take ``(packet, clusters, table, config,
settled)`` first.  A settled cluster keeps its column of the per-event
table, so it costs no build in the motion step.  Their per-event tables are
column-major, as the layered solver's are.  Both report the same result
type as the layered solver and additionally track the summed per-cluster
sharpness so the three methods can be compared on one scale.
"""
from __future__ import annotations

import functools

import numpy as np

from .events import EventPacket
# this module calls none of initialize_greedy, accumulate_unweighted,
# sample_local, smooth, variance_contrast, warp_packet or
# displacement_sensitivity (its columns are read through the solver's
# _sample_warped); they stay bound here because perfbench/tracing.py wraps
# each name in every module that binds it
from .iwe import accumulate_unweighted, sample_local, smooth, variance_contrast
from .solver import (
    EPSILON_C,
    FD_STEP,
    ClusterSet,
    SegmentationResult,
    SolverConfig,
    _alternate,
    _column_sums,
    _normalize_rows,
    _sample_warped,
    _step_clusters,
    cluster_image,
    initialize_greedy,
    objective,
)
from .warps import WarpParams, displacement_sensitivity, warp_packet


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
    img = cluster_image(packet, params, _unit_weights(packet.n), config)
    total = img.total_mass
    values = _sample_warped(img, packet, params, out)
    if total > 0.0:
        values /= total
    return np.maximum(values, EPSILON_C, out=values)


def mixture_e_step(likelihoods: np.ndarray, mixing: np.ndarray, alive: np.ndarray):
    """Bayes membership refresh over the ``alive`` clusters from the
    likelihood table, followed by the mixing-weight update (mixing weight =
    mean membership).  Returns ``(membership, mixing)``."""
    membership = _normalize_rows(likelihoods * mixing, alive)
    return membership, _column_sums(membership) / membership.shape[0]


def _log_likelihood(likelihoods: np.ndarray, mixing: np.ndarray, j=None, column=None) -> float:
    """Total log of each event's mixture density, with ``column`` in place
    of column ``j`` if given.  Its weighted columns are added one after
    another into one event-sized array, the order in which numpy sums the
    rows of the column-major product, so no (n, J) product is made."""
    cols = [column if i == j else likelihoods[:, i] for i in range(likelihoods.shape[1])]
    mix = np.multiply(cols[0], mixing[0])
    term = np.empty_like(mix)
    for col, weight in zip(cols[1:], mixing[1:]):
        mix += np.multiply(col, weight, out=term)
    np.maximum(mix, 1e-300, out=mix)
    return float(np.log(mix, out=mix).sum())


def _column_m_step(packet, clusters, table, config, settled, column, value, h=None):
    """One :func:`_step_clusters` pass over a copy of ``table``, a per-event
    table with one column per cluster at the current motions.  A candidate's
    column is ``column(packet, params, config, out=...)`` and its value is
    ``value(table, j)(col)``, ``table`` holding every step taken so far;
    each stepped cluster's column at its returned motion goes into the
    table.  Returns the stepped clusters and the table."""
    clusters = clusters.copy()
    table = np.copy(table)      # np.copy keeps the column-major order
    # each candidate's column is computed here; an accepted candidate is the
    # line search's last, so its column is still here when it is yielded
    buffer = np.empty(packet.n)

    def start(j: int):
        score = value(table, j)

        def evaluate(candidate: WarpParams) -> tuple[float, np.ndarray]:
            return score(column(packet, candidate, config, out=buffer)), buffer

        return evaluate, score(table[:, j]), table[:, j]

    for j, _, built in _step_clusters(packet, clusters, settled, config, start, h):
        table[:, j] = built
    return clusters, table


def mixture_m_step(
    packet: EventPacket, clusters: ClusterSet, likelihoods: np.ndarray,
    config: SolverConfig, settled: np.ndarray, mixing: np.ndarray,
) -> tuple[ClusterSet, np.ndarray]:
    """One backtracking ascent step of the total log-likelihood per live
    cluster not marked in ``settled``, updating one component at a time; a
    cluster whose line search fails gets marked.  ``likelihoods`` is the
    table at the current motions (the one the E-step used).  Returns the
    stepped clusters plus the refreshed likelihood table."""

    def value(table, j):
        return lambda c: _log_likelihood(table, mixing, j, c)

    return _column_m_step(
        packet, clusters, likelihoods, config, settled, component_likelihood, value
    )


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
    img = cluster_image(packet, params, _unit_weights(packet.n), config)
    values = _sample_warped(img, packet, params, out)
    return np.log1p(np.maximum(values, 0.0, out=values), out=values)


def fuzzy_e_step(affinities: np.ndarray, b: float, alive: np.ndarray) -> np.ndarray:
    """Inverse-power membership refresh: p_kj proportional to
    affinity^(1/(b-1)) over the ``alive`` clusters, each row divided by its
    sum (see :func:`evseg.solver._normalize_rows`); all-zero rows become
    uniform over them.  One copy of the table, its dead columns zeroed, is
    raised in place with ``**`` rather than ``np.power``, which keeps
    numpy's shortcuts for exponents such as 1.0 and 2.0, and so the bytes."""
    powed = np.where(alive, affinities, 0.0)
    powed **= 1.0 / (b - 1.0)
    return _normalize_rows(powed, alive, out=powed)


def fuzzy_m_step(
    packet: EventPacket, clusters: ClusterSet, affinities: np.ndarray,
    config: SolverConfig, settled: np.ndarray, membership: np.ndarray, b: float,
) -> tuple[ClusterSet, np.ndarray]:
    """One backtracking ascent step of its membership-weighted affinity sum,
    sum_k p_kj^b a_kj, per live cluster not marked in ``settled``; a cluster
    whose line search fails gets marked.  ``affinities`` is the table at the
    current motions (the one the E-step used).  Returns the stepped clusters
    plus the refreshed affinity table."""

    def value(table, j):
        pw = membership[:, j] ** b
        return lambda c: float((pw * c).sum())

    # native-unit differences, not the pixel-unit default: with those the
    # slow cluster climbs onto the fast motion on the two-strip scene.  The
    # step floor is the default, as in the other M-steps
    return _column_m_step(
        packet, clusters, affinities, config, settled, fuzzy_affinity, value, FD_STEP
    )


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
        # the E-step's likelihood table is the M-step's starting table
        membership, mixing = mixture_e_step(table, mixing, clusters.alive)
        clusters, table = mixture_m_step(packet, clusters, table, config, settled, mixing)
        sharpness = objective(packet, clusters, membership, config)
        return clusters, membership, sharpness, _log_likelihood(table, mixing)

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
    own objective is the membership-weighted affinity sum.

    Once every live cluster is settled, an iteration whose affinity table
    equals the one the previous E-step read repeats that iteration exactly:
    its E-step, own objective and summed sharpness depend only on that
    table and the unchanged motions, and a settled cluster takes no step.
    So it hands back the previous iteration's result and builds nothing."""
    if not 1.0 < b < np.inf:
        raise ValueError("fuzziness b must be finite and exceed 1")
    table = None
    last = None     # (the table the previous E-step read, that step's result)

    def step(packet, clusters, membership, config, settled):
        nonlocal table, last
        if table is None:
            table = _column_table(fuzzy_affinity, packet, clusters, config)
        if last and (settled | ~clusters.alive).all() and np.array_equal(last[0], table):
            return last[1]
        read, membership = table, fuzzy_e_step(table, b, clusters.alive)
        clusters, table = fuzzy_m_step(packet, clusters, table, config, settled, membership, b)
        # numpy sums a whole table in memory order, so the product is made
        # C-ordered to keep the sum's last bits
        weighted = np.power(membership, b, order="C")
        own = float(np.multiply(weighted, table, out=weighted).sum())
        sharpness = objective(packet, clusters, membership, config)
        last = (read, (clusters, membership, sharpness, own))
        return last[1]

    return _alternate(packet, n_clusters, models, config, init, early_stop, "fuzzy", step)
