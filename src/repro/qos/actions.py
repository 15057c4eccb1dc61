"""QoS mitigation actions, wired through the platform's existing seams.

An action is a plain callable ``action(platform, target, now, **kwargs) ->
dict`` registered by name.  The returned dict is the action *detail*: it is
published verbatim on the ``QOS_ACTION`` hook topic and accumulated into
``RUN_END stats["qos"]``, so every mitigation the controller takes is
observable without bespoke instrumentation.  A target's ``action_kwargs``
are bound against its action's signature when the target validates, so an
argument the action does not take fails before the run starts.

Built-in actions (all reach the platform only through public seams —
``GlobalScheduler.migrate_replica``, the autoscaler's override fields, the
admission-throttle attributes consulted by the session processes):

``log``
    No-op: records the breach in the action log and does nothing else.
    The default, and the right choice for pure observability targets.
``migrate_hottest``
    Proactively migrates the kernel with active replicas on the *busiest*
    host (fewest idle GPUs), the same victim-selection rule reactive
    migration uses, via :meth:`GlobalScheduler.migrate_replica`.
``autoscaler_override``
    Temporarily raises the autoscaler's minimum-host floor by
    ``extra_hosts`` and freezes scale-in, both for ``hold_s`` simulated
    seconds.  The override is a pair of plain fields the autoscaler loop
    consults; when inactive the loop's behaviour is bit-identical to a
    build without QoS.
``admission_throttle``
    Defers every task admission for the next ``hold_s`` seconds by
    ``delay_s`` — backpressure applied in the session processes just
    before each task is submitted.

Custom actions register with :func:`register_action`::

    from repro.qos.actions import register_action

    @register_action("shed_load")
    def shed_load(platform, target, now, fraction=0.1):
        ...
        return {"shed": fraction}

Determinism contract: an action may create simulation events (QoS is a
*controller*, not an observer — it intentionally changes the timeline when
enabled), but everything it does must be a pure function of platform state
at the moment it runs.  No wall-clock reads, no unseeded randomness, no
iteration over unordered containers without sorting.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

__all__ = ["register_action", "known_actions", "resolve_action"]

ActionFn = Callable[..., dict]

_ACTIONS: Dict[str, ActionFn] = {}


def register_action(name: str) -> Callable[[ActionFn], ActionFn]:
    """Register an action under ``name`` (decorator)."""
    def decorator(fn: ActionFn) -> ActionFn:
        if name in _ACTIONS:
            raise ValueError(f"qos action {name!r} already registered")
        _ACTIONS[name] = fn
        return fn
    return decorator


def known_actions() -> Tuple[str, ...]:
    return tuple(sorted(_ACTIONS))


def resolve_action(name: str) -> ActionFn:
    try:
        return _ACTIONS[name]
    except KeyError:
        raise ValueError(f"unknown qos action {name!r} (known: "
                         f"{', '.join(known_actions())})") from None


# ----------------------------------------------------------------------
# Built-in actions.
# ----------------------------------------------------------------------
@register_action("log")
def log_only(platform, target, now) -> dict:
    """Record the breach; take no mitigation."""
    return {"noop": True}


@register_action("migrate_hottest")
def migrate_hottest(platform, target, now, gpus_required: int = 1) -> dict:
    """Proactively migrate one replica off the busiest host.

    Victim selection is deterministic: among hosts carrying at least one
    active replica, pick the one with the fewest idle GPUs (ties broken by
    host id), then the lexicographically-first kernel with a replica there.
    ``migrate_replica`` itself re-derives the exact replica to move and
    handles checkpointing, target search, and retry.
    """
    scheduler = platform.global_scheduler
    hosts: dict = {}
    for kernel_id in sorted(scheduler.kernels):
        kernel = scheduler.kernels[kernel_id]
        for replica in kernel.active_replicas:
            host = replica.host
            if host is None or not host.is_active:
                continue
            entry = hosts.setdefault(host.host_id,
                                     (host.idle_gpus, host.host_id, []))
            entry[2].append(kernel_id)
    if not hosts:
        return {"migrated": False, "reason": "no active replicas"}
    _, host_id, kernel_ids = min(hosts.values())
    kernel = scheduler.kernels[kernel_ids[0]]
    platform.env.process(
        scheduler.migrate_replica(kernel, int(gpus_required)),
        name=f"qos-migrate-{kernel.kernel_id}")
    return {"migrated": True, "kernel": kernel.kernel_id,
            "source_host": host_id}


@register_action("autoscaler_override")
def autoscaler_override(platform, target, now, extra_hosts: int = 1,
                        hold_s: float = 1800.0,
                        freeze_scale_in: bool = True) -> dict:
    """Raise the min-host floor and freeze scale-in for ``hold_s`` seconds."""
    autoscaler = platform.autoscaler
    floor = platform.cluster.active_host_count + int(extra_hosts)
    until = now + float(hold_s)
    # Overrides extend, never shrink: overlapping breaches keep the
    # strongest floor and the longest hold.
    autoscaler.qos_min_hosts = max(autoscaler.qos_min_hosts, floor)
    autoscaler.qos_floor_until = max(autoscaler.qos_floor_until, until)
    if freeze_scale_in:
        autoscaler.qos_freeze_until = max(autoscaler.qos_freeze_until, until)
    return {"overridden": True, "min_hosts": autoscaler.qos_min_hosts,
            "until": until, "scale_in_frozen": bool(freeze_scale_in)}


@register_action("admission_throttle")
def admission_throttle(platform, target, now, delay_s: float = 30.0,
                       hold_s: float = 900.0) -> dict:
    """Defer admissions by ``delay_s`` for the next ``hold_s`` seconds."""
    until = now + float(hold_s)
    platform.admission_throttle_until = max(
        platform.admission_throttle_until, until)
    platform.admission_throttle_delay_s = float(delay_s)
    return {"throttled": True, "delay_s": float(delay_s), "until": until}
