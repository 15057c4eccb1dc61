"""Incrementally maintained host orderings for O(log n) placement queries.

:class:`HostIndex` keeps three views of the *active* hosts of a cluster, all
updated through the same ``Host -> ClusterState`` delta hooks that already
feed the O(1) cluster aggregates:

* **rank order** — hosts sorted by the :class:`LeastLoadedPlacement` rank key
  ``(committed_training_gpus, -idle_gpus, subscribed_gpus, host_id)``.  The
  key contains the host id, so keys are unique and the order is exactly the
  order ``sorted(active_hosts, key=rank)`` would produce — placement queries
  that walk this list in order and stop after ``k`` viable hosts select the
  *same hosts* as a full sort, bit for bit;
* **idle order** — hosts with no actively training replica (``Host.is_idle``),
  kept in cluster-insertion order.  This reproduces the order of the previous
  ``[h for h in cluster.hosts.values() if h.is_active and h.is_idle]`` scan
  (dicts preserve insertion order), which scale-in depends on;
* **idle-GPU buckets** — for every idle-GPU count, the sorted host ids of
  the active hosts with exactly that count.  "Does any host have >= g idle
  GPUs?" is answerable without touching the host list at all (migration
  targeting and the Batch/LCP host-acquisition wait loops use it to skip
  scans that cannot succeed), and when a host *does* qualify the walk
  starts at the best qualifying bucket — O(buckets + answer), not the
  O(n) full-rank-list fallback scan it replaced.  The number of distinct
  idle counts is bounded by the GPU capacities in play (≤ 9 buckets for a
  homogeneous 8-GPU fleet), so bucket bookkeeping is effectively constant.

Updates use :mod:`bisect` on parallel key/host lists: O(log n) to locate plus
a C-level ``memmove`` to splice — microseconds at 1000 hosts, far below the
cost of the O(n log n) Python-key sorts the index replaces.

``reindex`` — the hottest mutation (every committed/subscribed GPU delta
lands here) — short-circuits the *zero-delta* case: when the new rank key
equals the old and the idle flag did not flip, it returns after one key
compare and one set-membership check, touching no list and running no
bisect.  Idle-view membership is tracked in a set so the per-reindex flip
check is O(1); the serial list is bisected only on an actual flip.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cluster.host import Host

RankKey = Tuple[int, int, int, str]


def rank_key(host: Host) -> RankKey:
    """The least-loaded placement rank key (see LeastLoadedPlacement._rank)."""
    return (host.committed_training_gpus, -host.idle_gpus,
            host.subscribed_gpus, host.host_id)


class HostIndex:
    """Rank-ordered, idle-ordered, and idle-GPU-bucketed views of a cluster."""

    __slots__ = ("_rank_keys", "_rank_hosts", "_entry_keys",
                 "_idle_serials", "_idle_hosts", "_idle_serial_of",
                 "_idle_ids", "_next_serial", "_idle_buckets",
                 "_hosts_by_id", "version")

    def __init__(self) -> None:
        #: Count of index mutations.  Every mutation entry point (``add``,
        #: ``discard``, ``reindex``) bumps it unconditionally, so a reindex
        #: that lands on the same rank key still counts.  Placement-relevant
        #: cluster mutations all funnel through these three methods via the
        #: ``Host -> ClusterState`` delta hooks; benchmarks read the total
        #: as a measure of index churn.
        self.version = 0
        # Parallel lists sorted by rank key; _entry_keys remembers the key a
        # host is currently filed under so a stale entry can be located after
        # the host's counters have already changed.
        self._rank_keys: List[RankKey] = []
        self._rank_hosts: List[Host] = []
        self._entry_keys: Dict[str, RankKey] = {}
        # Parallel lists of is_idle hosts sorted by cluster-insertion serial,
        # plus a membership set so the per-reindex flip check is O(1).
        self._idle_serials: List[int] = []
        self._idle_hosts: List[Host] = []
        self._idle_serial_of: Dict[str, int] = {}
        self._idle_ids: set = set()
        self._next_serial = 0
        # idle-GPU count -> sorted host ids with exactly that count.
        self._idle_buckets: Dict[int, List[str]] = {}
        self._hosts_by_id: Dict[str, Host] = {}

    def __len__(self) -> int:
        return len(self._rank_hosts)

    def __contains__(self, host_id: str) -> bool:
        return host_id in self._entry_keys

    # ------------------------------------------------------------------
    # Membership.
    # ------------------------------------------------------------------
    def add(self, host: Host) -> None:
        """Index an active host (idempotent)."""
        self.version += 1
        host_id = host.host_id
        if host_id in self._entry_keys:
            self.reindex(host)
            return
        key = rank_key(host)
        self._entry_keys[host_id] = key
        position = bisect_left(self._rank_keys, key)
        self._rank_keys.insert(position, key)
        self._rank_hosts.insert(position, host)
        serial = self._next_serial
        self._next_serial = serial + 1
        self._idle_serial_of[host_id] = serial
        if host.is_idle:
            # New hosts carry the largest serial so far: append, stays sorted.
            self._idle_serials.append(serial)
            self._idle_hosts.append(host)
            self._idle_ids.add(host_id)
        self._hosts_by_id[host_id] = host
        bucket = self._idle_buckets.setdefault(host.idle_gpus, [])
        insort(bucket, host_id)

    def discard(self, host: Host) -> None:
        """Drop a host from every view (idempotent)."""
        self.version += 1
        host_id = host.host_id
        key = self._entry_keys.pop(host_id, None)
        if key is None:
            return
        position = bisect_left(self._rank_keys, key)
        del self._rank_keys[position]
        del self._rank_hosts[position]
        serial = self._idle_serial_of.pop(host_id)
        if host_id in self._idle_ids:
            self._idle_ids.discard(host_id)
            idle_position = bisect_left(self._idle_serials, serial)
            del self._idle_serials[idle_position]
            del self._idle_hosts[idle_position]
        del self._hosts_by_id[host_id]
        self._bucket_remove(-key[1], host_id)

    def reindex(self, host: Host) -> None:
        """Re-file a host whose counters changed (no-op if not indexed).

        A *zero-delta* reindex — same rank key, same idle flag — is O(1):
        one key compare plus a set-membership check, no bisect, no list
        touched (the version still bumps).  A key move bisects to relocate
        and splices with ``del`` + ``insert`` (C-level memmoves); the idle
        flip check is served by the membership set, bisecting the serial
        list only when the flag actually flipped.
        Both paths file the host exactly where a from-scratch
        ``sorted(..., key=rank_key)`` would (the hypothesis differentials in
        tests/test_placement_index.py pin this against a scan rebuild).
        """
        self.version += 1
        host_id = host.host_id
        old_key = self._entry_keys.get(host_id)
        if old_key is None:
            return
        new_key = rank_key(host)
        # is_idle (no active training) can flip even when the rank key does
        # not change back to a previously seen value, so track it separately.
        indexed_idle = host_id in self._idle_ids
        is_idle = host.is_idle
        if new_key == old_key:
            if is_idle == indexed_idle:
                return  # zero-delta: nothing moved, nothing flipped.
        else:
            keys = self._rank_keys
            hosts = self._rank_hosts
            position = bisect_left(keys, old_key)
            del keys[position]
            del hosts[position]
            position = bisect_left(keys, new_key)
            keys.insert(position, new_key)
            hosts.insert(position, host)
            self._entry_keys[host_id] = new_key
            old_idle, new_idle = -old_key[1], -new_key[1]
            if new_idle != old_idle:
                self._bucket_remove(old_idle, host_id)
                insort(self._idle_buckets.setdefault(new_idle, []), host_id)
        if is_idle:
            if not indexed_idle:
                serial = self._idle_serial_of[host_id]
                position = bisect_left(self._idle_serials, serial)
                self._idle_serials.insert(position, serial)
                self._idle_hosts.insert(position, host)
                self._idle_ids.add(host_id)
        elif indexed_idle:
            serial = self._idle_serial_of[host_id]
            position = bisect_left(self._idle_serials, serial)
            del self._idle_serials[position]
            del self._idle_hosts[position]
            self._idle_ids.discard(host_id)

    def _bucket_remove(self, idle: int, host_id: str) -> None:
        bucket = self._idle_buckets[idle]
        if len(bucket) == 1:
            del self._idle_buckets[idle]
        else:
            del bucket[bisect_left(bucket, host_id)]

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def iter_ranked(self) -> Iterator[Host]:
        """Active hosts in least-loaded rank order (do not mutate while
        iterating)."""
        return iter(self._rank_hosts)

    def idle_hosts(self) -> List[Host]:
        """Active hosts with no actively training replica, in cluster-
        insertion order (matches the order of a host-dict scan)."""
        return list(self._idle_hosts)

    @property
    def idle_host_count(self) -> int:
        return len(self._idle_hosts)

    def hosts_with_idle_gpus(self, min_idle: int) -> int:
        """Number of active hosts with at least ``min_idle`` idle GPUs."""
        if min_idle <= 0:
            return len(self._rank_hosts)
        return sum(len(bucket) for idle, bucket in self._idle_buckets.items()
                   if idle >= min_idle)

    def idle_gpu_histogram(self) -> Dict[int, int]:
        """``{idle_gpu_count: active hosts with exactly that count}``.

        Sorted by idle count so serializations are deterministic; the shard
        barrier exchange ships this per epoch to build the merged global
        cluster view without serializing any host objects.
        """
        return {idle: len(bucket)
                for idle, bucket in sorted(self._idle_buckets.items())}

    def most_idle_host(self, min_idle: int) -> Optional[Host]:
        """The host maximizing ``(idle_gpus, host_id)`` with at least
        ``min_idle`` idle GPUs (the Batch baseline's FCFS rank), or None.

        Served straight from the idle-GPU buckets: the best qualifying
        bucket is the maximum over a handful of distinct idle counts, and
        the winner within it is the bucket's last (largest) host id —
        O(buckets), never a host-list scan.  The selection is identical to
        ``max(qualifying_hosts, key=lambda h: (h.idle_gpus, h.host_id))``.
        """
        best_idle = -1
        for idle in self._idle_buckets:
            if idle >= min_idle and idle > best_idle:
                best_idle = idle
        if best_idle < 0:
            return None
        return self._hosts_by_id[self._idle_buckets[best_idle][-1]]

    def iter_hosts_by_idle_desc(self, min_idle: int) -> Iterator[Host]:
        """Hosts with at least ``min_idle`` idle GPUs, best bucket first.

        Yields in ``(idle_gpus descending, host_id ascending)`` order — the
        enumeration order of the sort-based scans the LCP baseline replaced,
        restricted to the qualifying buckets so a wait-loop probe touches
        only hosts that can actually serve the request.  Do not mutate the
        index while iterating.
        """
        hosts_by_id = self._hosts_by_id
        for idle in sorted(self._idle_buckets, reverse=True):
            if idle < min_idle:
                break
            for host_id in self._idle_buckets[idle]:
                yield hosts_by_id[host_id]

    # ------------------------------------------------------------------
    # Invariant checking (tests).
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert every view matches a from-scratch rebuild (test helper)."""
        expected = sorted(((rank_key(h), h) for h in self._rank_hosts),
                          key=lambda kv: kv[0])
        assert self._rank_keys == [k for k, _ in expected], \
            "rank keys out of order or stale"
        assert self._rank_hosts == [h for _, h in expected], \
            "rank hosts out of order"
        for key, host in zip(self._rank_keys, self._rank_hosts):
            assert key == rank_key(host), f"stale key for {host.host_id}"
        assert self._idle_serials == sorted(self._idle_serials)
        expected_idle = [h for h in sorted(
            self._rank_hosts, key=lambda h: self._idle_serial_of[h.host_id])
            if h.is_idle]
        assert self._idle_hosts == expected_idle, "idle view out of sync"
        assert self._idle_ids == {h.host_id for h in self._idle_hosts}, \
            "idle membership set out of sync"
        buckets: Dict[int, List[str]] = {}
        for host in self._rank_hosts:
            buckets.setdefault(host.idle_gpus, []).append(host.host_id)
        assert {idle: sorted(ids) for idle, ids in buckets.items()} == \
            self._idle_buckets, "idle-GPU buckets out of sync"
        assert self._hosts_by_id == \
            {h.host_id: h for h in self._rank_hosts}, "host map out of sync"
