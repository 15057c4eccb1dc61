"""Kernel replica placement policies (§3.4.1).

The Global Scheduler asks a :class:`PlacementPolicy` for candidate hosts when
creating a distributed kernel or migrating a replica.  NotebookOS's default
policy favours the *least-loaded* hosts (fewest actively used GPUs, then most
idle GPUs), subject to a cluster-wide subscription-ratio (SR) limit: placing
a replica on a host must not push that host's SR above the dynamically
computed cluster-wide limit.

Placement queries accept either a plain sequence of :class:`Host` objects or
a :class:`~repro.core.global_scheduler.ClusterState`.  A cluster state serves
the query from its incrementally maintained
:class:`~repro.cluster.index.HostIndex` — O(log n + k) per decision instead
of an O(n log n) sort — while a host sequence takes the sort-based slow path.
Both paths select the *same hosts in the same order*: the index keeps hosts
in exactly the order ``sorted(active_hosts, key=rank)`` produces (the rank
key embeds the host id, so keys are unique and ties are impossible), and the
golden-metrics and property tests pin the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

from repro.cluster.host import Host
from repro.cluster.resources import ResourceRequest

#: Either an indexed cluster view or a plain host sequence (tests, tools).
HostSource = Union["ClusterState", Sequence[Host]]  # noqa: F821 - forward ref


def cluster_subscription_ratio(hosts: HostSource, replication_factor: int) -> float:
    """The cluster-wide SR: ΣS / (ΣG · R) as defined in §3.4.1.

    A :class:`ClusterState` answers from its incremental totals (exact — the
    same integers a scan would sum); a host sequence is scanned.
    """
    ratio = getattr(hosts, "subscription_ratio", None)
    if ratio is not None:
        return ratio(replication_factor)
    total_gpus = sum(h.spec.num_gpus for h in hosts if h.is_active)
    if total_gpus == 0 or replication_factor == 0:
        return 0.0
    total_subscribed = sum(h.subscribed_gpus for h in hosts if h.is_active)
    return total_subscribed / (total_gpus * replication_factor)


@dataclass
class PlacementDecision:
    """The outcome of a placement query."""

    hosts: List[Host] = field(default_factory=list)
    satisfied: bool = False
    reason: str = ""

    @property
    def host_ids(self) -> List[str]:
        return [host.host_id for host in self.hosts]


class PlacementPolicy:
    """Interface for pluggable replica placement policies."""

    name = "base"

    def candidate_hosts(self, hosts: HostSource, request: ResourceRequest,
                        replicas_needed: int, replication_factor: int,
                        exclude_hosts: Sequence[str] = ()) -> PlacementDecision:
        """Pick ``replicas_needed`` hosts for replicas of a kernel."""
        raise NotImplementedError

    def migration_target(self, hosts: HostSource, request: ResourceRequest,
                         replication_factor: int,
                         exclude_hosts: Sequence[str] = ()) -> Optional[Host]:
        """Pick a host that can *immediately and exclusively* bind the GPUs."""
        raise NotImplementedError


class LeastLoadedPlacement(PlacementPolicy):
    """NotebookOS's default placement policy.

    Hosts are ranked by (actively used GPUs ascending, idle GPUs descending).
    A host is viable if it is active, not excluded, its subscription ratio
    after placement would not exceed the cluster-wide SR limit, and — when
    oversubscription is disabled — it can exclusively commit the request.
    """

    name = "least-loaded"

    def __init__(self, oversubscription_enabled: bool = True,
                 subscription_ratio_limit: Optional[float] = None,
                 minimum_sr_limit: float = 1.0,
                 high_watermark: float = 3.0) -> None:
        self.oversubscription_enabled = oversubscription_enabled
        self.subscription_ratio_limit = subscription_ratio_limit
        self.minimum_sr_limit = minimum_sr_limit
        # The configurable per-host high watermark that prevents *excessive*
        # over-subscription (§3.2.1); the dynamic cluster-wide limit below it
        # only balances load across hosts.
        self.high_watermark = high_watermark

    # ------------------------------------------------------------------
    # SR limit handling.
    # ------------------------------------------------------------------
    def effective_sr_limit(self, hosts: HostSource, replication_factor: int) -> float:
        """The SR ceiling applied to individual hosts.

        The paper computes a *dynamic* cluster-wide limit equal to the current
        cluster-wide SR; a host whose SR would exceed this limit after the
        placement is rejected in favour of another.  A static limit can be
        configured instead.
        """
        if self.subscription_ratio_limit is not None:
            return self.subscription_ratio_limit
        dynamic = cluster_subscription_ratio(hosts, replication_factor)
        return max(self.minimum_sr_limit, dynamic)

    def _host_sr_after(self, host: Host, request: ResourceRequest,
                       replication_factor: int) -> float:
        projected = host.subscribed_gpus + request.gpus
        return projected / (host.spec.num_gpus * replication_factor)

    def _rank(self, host: Host) -> tuple:
        return (host.committed_training_gpus, -host.idle_gpus, host.subscribed_gpus,
                host.host_id)

    def _ranked_active(self, hosts: HostSource) -> Iterable[Host]:
        """Active hosts in rank order: from the index when available,
        otherwise the frozen sort-based path (bit-identical ordering)."""
        ranked = getattr(hosts, "iter_ranked", None)
        if ranked is not None:
            return ranked()
        return sorted((h for h in hosts if h.is_active), key=self._rank)

    # ------------------------------------------------------------------
    # Placement queries.
    # ------------------------------------------------------------------
    def candidate_hosts(self, hosts: HostSource, request: ResourceRequest,
                        replicas_needed: int, replication_factor: int,
                        exclude_hosts: Sequence[str] = ()) -> PlacementDecision:
        excluded = set(exclude_hosts)
        balance_limit = min(self.effective_sr_limit(hosts, replication_factor),
                            self.high_watermark)
        # First pass: respect the dynamic cluster-wide balancing limit.
        viable = self._collect(hosts, request, replicas_needed, replication_factor,
                               excluded, balance_limit)
        if len(viable) < replicas_needed and self.oversubscription_enabled:
            # Second pass: the balancing limit is advisory; only the high
            # watermark is a hard cap on per-host over-subscription.
            viable = self._collect(hosts, request, replicas_needed,
                                   replication_factor, excluded, self.high_watermark)
        if len(viable) < replicas_needed:
            return PlacementDecision(hosts=viable, satisfied=False,
                                     reason=f"only {len(viable)} of {replicas_needed} "
                                            f"viable hosts (watermark "
                                            f"{self.high_watermark:.2f})")
        return PlacementDecision(hosts=viable, satisfied=True, reason="ok")

    def _collect(self, hosts: HostSource, request: ResourceRequest,
                 replicas_needed: int, replication_factor: int,
                 excluded: set, sr_limit: float) -> List[Host]:
        viable: List[Host] = []
        oversubscribed = self.oversubscription_enabled
        for host in self._ranked_active(hosts):
            if host.host_id in excluded:
                continue
            if request.gpus > host.spec.num_gpus:
                continue
            if oversubscribed:
                if self._host_sr_after(host, request, replication_factor) > sr_limit + 1e-9:
                    continue
            else:
                if not host.pool.can_commit(request):
                    continue
            viable.append(host)
            if len(viable) == replicas_needed:
                break
        return viable

    def migration_target(self, hosts: HostSource, request: ResourceRequest,
                         replication_factor: int,
                         exclude_hosts: Sequence[str] = ()) -> Optional[Host]:
        available = getattr(hosts, "hosts_with_idle_gpus", None)
        if available is not None and request.gpus > 0 \
                and not available(request.gpus):
            # No active host has enough idle GPUs — the common case while the
            # cluster is saturated and a migration retries on an interval.
            return None
        excluded = set(exclude_hosts)
        needed = request.gpus
        # The first host in rank order satisfying the predicate is the
        # minimum-rank candidate — identical to sorting the filtered
        # candidate list and taking its head, without building either.
        for host in self._ranked_active(hosts):
            if host.idle_gpus >= needed and host.host_id not in excluded:
                return host
        return None
