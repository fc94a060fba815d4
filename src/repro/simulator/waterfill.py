"""Max–min fair water-filling over one flow set.

Two exact implementations of progressive filling over any flow set,
dispatched by flow-set size from
:func:`repro.simulator.flows.max_min_fair_rates`:

* :func:`_max_min_fair_rates_python` — incremental pure Python with per-link
  user sets, one bottleneck per round; also the reference the property
  tests hold the other fills to;
* :func:`_max_min_fair_rates_numpy` — segmented water-filling over a flat
  link×flow incidence structure, every sharing component filled at once.

Both take any flow objects with a ``flow_id`` and a ``path`` of links; flows
with an empty path get infinite rate.  The flow simulator's re-rates know
their link-sharing components already: each small one goes to
:func:`_fill_component`, the large ones of an event together to the numpy
fill.  All three produce bit-identical allocations on one component.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flows import Flow, LinkKey


def _sharing_components(flows: Sequence[Flow]) -> List[List[Flow]]:
    """Partition flows into connected components of link sharing.

    Empty-path flows form singleton components (they get infinite rate from
    either solver).  Union-find over link keys with path halving; each
    (flow, link) incidence is touched O(alpha) times.
    """
    parent: Dict[LinkKey, LinkKey] = {}
    for flow in flows:
        path = flow.path
        if not path:
            continue
        first = path[0].key
        root = parent.setdefault(first, first)
        while parent[root] is not root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        for link in path[1:]:
            key = link.key
            other = parent.setdefault(key, key)
            while parent[other] is not other:
                parent[other] = parent[parent[other]]
                other = parent[other]
            if other is not root:
                parent[other] = root
    groups: Dict[Optional[LinkKey], List[Flow]] = {}
    for flow in flows:
        if not flow.path:
            groups.setdefault(None, []).append(flow)
            continue
        root = flow.path[0].key
        while parent[root] is not root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        groups.setdefault(root, []).append(flow)
    return list(groups.values())


def _max_min_fair_rates_python(
    flows: Sequence[Flow], capacities: Optional[Dict[LinkKey, float]] = None
) -> Dict[int, float]:
    """Progressive filling with incremental per-link user-set bookkeeping."""
    remaining_capacity: Dict[LinkKey, float] = {}
    # Per-link set of *still-unallocated* flows; flows are removed as they
    # freeze, so each (flow, link) pair is touched O(1) times overall instead
    # of being re-intersected against the unallocated set every round.
    link_flows: Dict[LinkKey, Set[int]] = {}
    flow_by_id: Dict[int, Flow] = {flow.flow_id: flow for flow in flows}
    for flow in flows:
        for link in flow.path:
            key = link.key
            if key not in remaining_capacity:
                capacity = link.bandwidth
                if capacities and key in capacities:
                    capacity = capacities[key]
                remaining_capacity[key] = capacity
                link_flows[key] = set()
            link_flows[key].add(flow.flow_id)

    rates: Dict[int, float] = {}
    num_unallocated = 0
    for flow in flows:
        if not flow.path:
            rates[flow.flow_id] = math.inf
        else:
            num_unallocated += 1

    while num_unallocated:
        # Find the most constrained link: smallest fair share among its
        # still-unallocated flows.
        best_share = None
        for key, users in link_flows.items():
            if not users:
                continue
            share = remaining_capacity[key] / len(users)
            if best_share is None or share < best_share:
                best_share = share
        if best_share is None:
            # Remaining flows traverse only links with no capacity constraint.
            for flow in flows:
                if flow.flow_id not in rates:
                    rates[flow.flow_id] = math.inf
            break
        # Freeze every flow crossing a link whose fair share equals the bottleneck.
        frozen: Set[int] = set()
        for key, users in link_flows.items():
            if not users:
                continue
            share = remaining_capacity[key] / len(users)
            if share <= best_share * (1 + 1e-12):
                frozen.update(users)
        # Subtract the frozen flows' rates from every link they traverse and
        # drop them from the per-link user sets (incremental bookkeeping);
        # links whose last user froze are retired from the scan entirely.
        for flow_id in frozen:
            rates[flow_id] = best_share
            for link in flow_by_id[flow_id].path:
                key = link.key
                users = link_flows.get(key)
                if users is None:
                    continue  # retired in an earlier round; never read again
                remaining_capacity[key] = max(
                    0.0, remaining_capacity[key] - best_share
                )
                users.discard(flow_id)
                if not users:
                    del link_flows[key]
        num_unallocated -= len(frozen)
    return rates


def _fill_component(
    private: Sequence[float],
    crossing: Sequence[Sequence[int]],
    capacity: Sequence[float],
) -> List[float]:
    """Progressive filling of one link-sharing component; rates by position.

    Int-keyed: flow ``i`` crosses the shared links at positions
    ``crossing[i]``, shared link ``j`` has ``capacity[j]``, and
    ``private[i]`` is the smallest bandwidth of the links only flow ``i``
    crosses (``inf`` if none).  A one-user link's fair share is its capacity
    and it retires with its user, so folding those links into one private
    capacity per flow is exact.  Each round scans the shared links and the
    unallocated flows' private capacities only, with the float operations
    of :func:`_max_min_fair_rates_python`.
    """
    inf = math.inf
    remaining = list(capacity)
    members: List[List[int]] = [[] for _ in remaining]
    for flow, links in enumerate(crossing):
        for pos in links:
            members[pos].append(flow)
    users = [len(flows) for flows in members]  # still-unallocated flows
    rates: List[Optional[float]] = [None] * len(private)
    unallocated = len(private)
    while unallocated:
        best = inf
        for pos, count in enumerate(users):
            if count and remaining[pos] / count < best:
                best = remaining[pos] / count
        for flow, rate in enumerate(rates):
            if rate is None and private[flow] < best:
                best = private[flow]
        bound = best * (1 + 1e-12)
        frozen: List[int] = []
        for pos, count in enumerate(users):
            if count and remaining[pos] / count <= bound:
                for flow in members[pos]:
                    if rates[flow] is None:
                        rates[flow] = best
                        frozen.append(flow)
        for flow, rate in enumerate(rates):
            if rate is None and private[flow] <= bound:
                rates[flow] = best
                frozen.append(flow)
        for flow in frozen:
            for pos in crossing[flow]:
                remaining[pos] = max(0.0, remaining[pos] - best)
                users[pos] -= 1
        unallocated -= len(frozen)
    return rates


#: Iteration cap for the component-label propagation inside the numpy
#: solver.  Typical sharing graphs converge in a handful of sweeps; on
#: pathological long chains the solver safely falls back to one global
#: component (exact, just more filling rounds).
_LABEL_SWEEPS_MAX = 16


def _max_min_fair_rates_numpy(
    flows: Sequence[Flow], capacities: Optional[Dict[LinkKey, float]] = None
) -> Dict[int, float]:
    """Segmented water-filling over a flat link×flow incidence structure.

    The solver first labels the connected components of the link-sharing
    graph with a few ``minimum.reduceat`` sweeps, then runs progressive
    filling with one bottleneck *per component* per round: independent
    components fill in parallel, so the round count is the deepest single
    component's share ladder instead of the number of distinct shares
    overall.  Every round is a handful of O(incidence) array operations,
    and the incidence arrays are compacted as flows freeze.  The allocation
    is identical to the pure-Python algorithm.
    """
    rates: Dict[int, float] = {}
    link_index: Dict[LinkKey, int] = {}
    caps: List[float] = []
    entry_flow: List[int] = []
    entry_link: List[int] = []
    constrained: List[Flow] = []
    for flow in flows:
        if not flow.path:
            rates[flow.flow_id] = math.inf
            continue
        flow_pos = len(constrained)
        constrained.append(flow)
        for link in flow.path:
            key = link.key
            link_pos = link_index.get(key)
            if link_pos is None:
                link_pos = len(caps)
                link_index[key] = link_pos
                capacity = link.bandwidth
                if capacities and key in capacities:
                    capacity = capacities[key]
                caps.append(capacity)
            entry_flow.append(flow_pos)
            entry_link.append(link_pos)
    if not constrained:
        return rates

    flow_rate = _fill_incidence(
        _np.asarray(caps, dtype=float),
        _np.asarray(entry_flow, dtype=_np.intp),
        _np.asarray(entry_link, dtype=_np.intp),
        len(constrained),
    )
    for flow_pos, flow in enumerate(constrained):
        value = flow_rate[flow_pos]
        rates[flow.flow_id] = math.inf if math.isinf(value) else float(value)
    return rates


def _fill_incidence(cap, e_flow, e_link, num_flows):
    """Water-fill one pre-built link×flow incidence; returns per-flow rates.

    ``e_flow`` must be non-decreasing and every flow/link position must
    appear at least once.
    """
    num_links = cap.shape[0]

    # --- component labels (links): alternating min-propagation ----------- #
    # Entries were appended flow-by-flow, so e_flow is non-decreasing and
    # every flow/link has at least one entry: reduceat segments are exact.
    flow_starts = _np.searchsorted(e_flow, _np.arange(num_flows))
    link_order = _np.argsort(e_link, kind="stable")
    sorted_links = e_link[link_order]
    link_starts = _np.flatnonzero(
        _np.r_[True, sorted_links[1:] != sorted_links[:-1]]
    )
    label = _np.arange(num_links, dtype=_np.intp)
    converged = False
    for _sweep in range(_LABEL_SWEEPS_MAX):
        flow_label = _np.minimum.reduceat(label[e_link], flow_starts)
        new_label = _np.minimum.reduceat(
            flow_label[e_flow][link_order], link_starts
        )
        if _np.array_equal(new_label, label):
            converged = True
            break
        label = new_label
    if not converged:
        # Under-merged labels would freeze non-global minima inside one true
        # component; a single global component is always exact.
        label = _np.zeros(num_links, dtype=_np.intp)
    _uniq, comp_of_link = _np.unique(label, return_inverse=True)
    comp_of_flow = comp_of_link[e_link[flow_starts]]
    comp_order = _np.argsort(comp_of_link, kind="stable")
    sorted_comps = comp_of_link[comp_order]
    comp_starts = _np.flatnonzero(
        _np.r_[True, sorted_comps[1:] != sorted_comps[:-1]]
    )

    user_count = _np.bincount(e_link, minlength=num_links).astype(float)
    entry_alive = _np.ones(len(e_flow), dtype=bool)
    flow_rate = _np.zeros(num_flows, dtype=float)
    flow_unallocated = _np.ones(num_flows, dtype=bool)
    remaining = num_flows

    while remaining:
        with _np.errstate(divide="ignore"):
            shares = _np.where(
                user_count > 0.0, cap / _np.maximum(user_count, 1.0), _np.inf
            )
        # One bottleneck per component; finished components read inf and
        # freeze nothing (their entries are all dead).  A component whose
        # remaining links are unconstrained freezes its flows at inf.
        comp_best = _np.minimum.reduceat(shares[comp_order], comp_starts)
        frozen_link = shares <= comp_best[comp_of_link] * (1 + 1e-12)
        frozen_entries = entry_alive & frozen_link[e_link]
        newly_frozen = _np.unique(e_flow[frozen_entries])
        if newly_frozen.size == 0:
            flow_rate[flow_unallocated] = _np.inf
            break
        flow_rate[newly_frozen] = comp_best[comp_of_flow[newly_frozen]]
        flow_unallocated[newly_frozen] = False
        dead = entry_alive & ~flow_unallocated[e_flow]
        dead_link = e_link[dead]
        finite_rate = _np.where(
            _np.isfinite(flow_rate), flow_rate, 0.0
        )  # inf-rate flows only ever cross unconstrained links
        cap_drain = _np.bincount(
            dead_link, weights=finite_rate[e_flow[dead]], minlength=num_links
        )
        cap -= cap_drain
        _np.maximum(cap, 0.0, out=cap)
        user_count -= _np.bincount(dead_link, minlength=num_links)
        entry_alive &= ~dead
        remaining -= int(newly_frozen.size)
        # Compact the incidence arrays once most entries have died, so a
        # many-round filling scans the shrinking live set instead of the
        # full original incidence.
        alive_count = int(entry_alive.sum())
        if alive_count * 2 < e_flow.size:
            e_flow = e_flow[entry_alive]
            e_link = e_link[entry_alive]
            entry_alive = _np.ones(alive_count, dtype=bool)

    return flow_rate
