"""The closed-loop QoS controller.

A :class:`QosController` owns a private :class:`~repro.telemetry.Telemetry`
instance sized to exactly the streams and quantiles its targets read,
subscribes one :class:`TargetState` machine per target to the matching
stream's ``on_window`` callback, and evaluates triggers **only at window
closes** — deterministic simulated times derived from the sample stream
itself.  When several targets watch the same stream their machines run in
declaration order (the telemetry layer invokes window callbacks in
subscription order), which is the tie-break rule the multi-target tests
pin.

Every transition is published on the platform HookBus:

* ``QOS_BREACH (time, target_name, detail)`` — ``windows`` consecutive
  violating windows observed;
* ``QOS_ACTION (time, target_name, action_name, detail)`` — the target's
  action fired (on breach entry and, while still breached, every time the
  cooldown expires);
* ``QOS_RECOVER (time, target_name, detail)`` — ``windows`` consecutive
  windows inside the hysteresis band.

At ``RUN_END`` the controller folds a summary into ``stats["qos"]``: per
target the transition counts, the full timeline of transitions, and the
actions taken.

Determinism: a :class:`TargetState` decision is a pure function of the
window-snapshot sequence it has seen (plus, when a
:class:`~repro.shard.barrier.ShardContext` is attached, the fleet pressure
of the last merged barrier frame — itself a deterministic function of epoch
state identical under the serial and parallel shard drivers).  Replaying
the same snapshot sequence through a fresh machine yields the identical
transition sequence; the hypothesis property test pins this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.api.hooks import QOS_ACTION, QOS_BREACH, QOS_RECOVER, RUN_END
from repro.qos.actions import resolve_action
from repro.qos.targets import QosConfig, QosTarget
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.streams import WindowSnapshot

__all__ = ["QosController", "TargetState"]

OK, BREACHED = "ok", "breached"


class TargetState:
    """Pure per-target trigger state machine.

    ``observe(snapshot, fleet_pressure)`` consumes one closed window and
    returns the transition it caused (``"breach"``, ``"recover"``,
    ``"action"`` or ``None``).  The machine reads nothing but its target,
    the snapshots it is fed, and the pressure argument — no clocks, no
    platform state — so its decision sequence is replayable.
    """

    __slots__ = ("target", "state", "_violating", "_clearing",
                 "_last_action_at", "breaches", "recoveries", "actions_fired")

    def __init__(self, target: QosTarget) -> None:
        self.target = target
        self.state = OK
        self._violating = 0
        self._clearing = 0
        self._last_action_at: Optional[float] = None
        self.breaches = 0
        self.recoveries = 0
        self.actions_fired = 0

    # ------------------------------------------------------------------
    def value_of(self, snapshot: "WindowSnapshot") -> Optional[float]:
        """The statistic this target reads off a window, or ``None``."""
        target = self.target
        if target.percentile is not None:
            return snapshot.quantiles.get(target.stat_label)
        if target.aggregate == "mean":
            return snapshot.mean
        if target.aggregate == "rate":
            return snapshot.rate_per_s
        if target.aggregate == "count":
            return float(snapshot.count)
        if target.aggregate == "min":
            return snapshot.minimum
        return snapshot.maximum

    def observe(self, snapshot: "WindowSnapshot",
                fleet_pressure: int = 0) -> Optional[str]:
        """Consume one closed window; return the transition, if any.

        Empty windows are neutral: they neither extend a violating streak
        nor count toward recovery (no samples means no evidence either
        way), mirroring how a production probe treats a scrape gap.
        """
        if snapshot.count == 0:
            return None
        value = self.value_of(snapshot)
        if value is None:
            return None
        target = self.target
        now = snapshot.end
        if self.state == OK:
            if target.violated(value, fleet_pressure):
                self._violating += 1
                if self._violating >= target.windows:
                    self.state = BREACHED
                    self._violating = 0
                    self._clearing = 0
                    self.breaches += 1
                    return "breach"
            else:
                self._violating = 0
            return None
        # Breached: check recovery through the hysteresis band first, then
        # whether the cooldown allows re-firing the action.
        if target.cleared(value, fleet_pressure):
            self._clearing += 1
            if self._clearing >= target.windows:
                self.state = OK
                self._clearing = 0
                self._violating = 0
                self.recoveries += 1
                return "recover"
            return None
        self._clearing = 0
        if self._last_action_at is None or \
                now - self._last_action_at >= target.cooldown_s:
            return "action"
        return None

    def mark_action(self, now: float) -> None:
        self._last_action_at = now
        self.actions_fired += 1


class QosController:
    """Evaluates QoS targets at window closes and fires their actions.

    Construction wires everything up; the controller then runs entirely
    off telemetry callbacks.  It deliberately relaxes the HookBus
    zero-timeline rule: QoS is a *controller*, and its actions (migrations,
    scale-outs, admission delays) are supposed to change the run.  With no
    targets breaching it schedules nothing, and with QoS disabled (no
    ``qos`` config block) none of this code is reachable, so the goldens'
    byte-identity is preserved by construction.
    """

    def __init__(self, platform, config: QosConfig) -> None:
        config.validate()
        self.platform = platform
        self.config = config
        self.states: List[TargetState] = [TargetState(t)
                                          for t in config.targets]
        #: Chronological (time, kind, target, detail) transition timeline.
        self.timeline: List[tuple] = []
        quantiles = config.quantiles() or (0.5,)
        # Only the streams the targets read: the others would cost a sample
        # (and a quantile sketch) per task that no target ever looks at.
        self.telemetry = Telemetry(window_s=config.window_s,
                                   quantiles=quantiles, retain_sketches=0,
                                   publish_stats=False,
                                   streams=[state.target.metric
                                            for state in self.states])
        # Declaration order == evaluation order at a shared window close:
        # on_window registration order is subscription order per stream.
        for state in self.states:
            self.telemetry.on_window(
                state.target.metric,
                self._make_window_callback(state))
        # Seat our RUN_END summarizer *before* telemetry attaches its own
        # RUN_END finalizer with first=True: attach() will prepend the
        # finalizer ahead of us, so at RUN_END the final partial windows
        # close (possibly firing observe/action one last time) and only
        # then does the summary land in stats["qos"] — with later-seated
        # user hooks still seeing the finished summary.
        platform.hooks.subscribe(RUN_END, self._on_run_end, first=True)
        self.telemetry.attach(platform.hooks)

    # ------------------------------------------------------------------
    # Window evaluation.
    # ------------------------------------------------------------------
    def _fleet_pressure(self) -> int:
        """Fleet-wide GPU deficit from the last shard barrier, if any.

        One-epoch-stale by design: both shard drivers absorb frames at
        identical barrier epochs, so this value is a pure function of
        (epoch, shard payloads) and identical serial vs parallel.
        """
        context = getattr(self.platform, "shard_context", None)
        if context is None:
            return 0
        return context.fleet_pressure

    def _make_window_callback(self, state: TargetState):
        def on_window(snapshot: "WindowSnapshot") -> None:
            # Suppress evaluation once the workload is finished: RUN_END
            # finalization closes partial windows after the platform has
            # already torn down, and firing mitigations there would
            # schedule events into a dead run.
            if self.platform._workload is None:
                return
            transition = state.observe(snapshot, self._fleet_pressure())
            if transition is None:
                return
            now = snapshot.end
            value = state.value_of(snapshot)
            target = state.target
            detail = {
                "metric": target.metric,
                "stat": target.stat_label,
                "value": value,
                "threshold": target.effective_threshold(
                    self._fleet_pressure()),
                "window_end": now,
            }
            if transition == "recover":
                self.timeline.append((now, "recover", target.name, detail))
                self.platform.hooks.publish(QOS_RECOVER, now, target.name,
                                            detail)
                return
            if transition == "breach":
                self.timeline.append((now, "breach", target.name, detail))
                self.platform.hooks.publish(QOS_BREACH, now, target.name,
                                            detail)
            self._fire_action(state, now, detail)
        return on_window

    def _fire_action(self, state: TargetState, now: float,
                     trigger_detail: Dict[str, object]) -> None:
        target = state.target
        action = resolve_action(target.action)
        result = action(self.platform, target, now, **target.action_kwargs)
        state.mark_action(now)
        detail = dict(trigger_detail)
        detail.update(result)
        self.timeline.append((now, "action", target.name, detail))
        self.platform.hooks.publish(QOS_ACTION, now, target.name,
                                    target.action, detail)

    # ------------------------------------------------------------------
    # RUN_END summary.
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        return {
            "window_s": self.config.window_s,
            "targets": {
                state.target.name: {
                    "action": state.target.action,
                    "breaches": state.breaches,
                    "recoveries": state.recoveries,
                    "actions_fired": state.actions_fired,
                    "final_state": state.state,
                }
                for state in self.states
            },
            "timeline": [
                {"time": time, "kind": kind, "target": name, "detail": detail}
                for time, kind, name, detail in self.timeline
            ],
        }

    def _on_run_end(self, platform, result, stats) -> None:
        stats["qos"] = self.summary()
