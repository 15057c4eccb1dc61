"""Declarative QoS targets: the sweepable ``qos`` config block.

A :class:`QosTarget` names one service-level objective over a
:mod:`repro.telemetry` windowed stream — "p99 interactivity above 120 s",
"placement satisfaction rate below 0.9" — together with the trigger
semantics the :class:`~repro.qos.controller.QosController` applies to it:

* **windows** — how many *consecutive* closed windows must violate the
  threshold before the target breaches (debouncing);
* **hysteresis** — the recovery band: a breached target only recovers once
  the value clears ``threshold`` by at least this margin for ``windows``
  consecutive windows, so a value oscillating around the threshold does not
  flap breach/recover every window;
* **cooldown_s** — minimum simulated seconds between fired actions, so a
  persistent breach re-fires its mitigation at a bounded rate instead of
  every window.

Both :class:`QosTarget` and the enclosing :class:`QosConfig` are plain
data: they round-trip through dicts (and therefore through
:class:`~repro.api.spec.RunSpec` JSON and the result-store content hash),
and parse from a compact CLI shorthand::

    interactivity:p99>120:migrate_hottest
    placement:mean<0.9:autoscaler_override,extra_hosts=2,hold_s=1200
    tct:p90>900:admission_throttle,delay_s=30,windows=2,cooldown_s=600

``metric:stat<op>threshold:action[,key=value...]`` — ``stat`` is ``pNN``,
``mean``, ``rate``, ``count``, ``min`` or ``max``; ``<op>`` is ``>``
(breach above) or ``<`` (breach below); trailing ``key=value`` pairs set
``windows``, ``hysteresis``, ``cooldown_s`` or ``name``, and every other
key is an argument of the action, checked against its signature by
:meth:`QosTarget.validate`.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry import DEFAULT_STREAMS
from repro.telemetry.sketch import quantile_label

__all__ = ["QosTarget", "QosConfig"]

#: Aggregates a target may read off a WindowSnapshot (besides percentiles).
AGGREGATES = ("mean", "rate", "count", "min", "max")

#: Target fields settable from the CLI shorthand's key=value suffix.
_SHORTHAND_FIELDS = ("windows", "hysteresis", "cooldown_s", "name")
_INT_FIELDS = frozenset({"windows"})
_STR_FIELDS = frozenset({"name"})


@dataclass
class QosTarget:
    """One service-level objective plus its trigger semantics."""

    metric: str
    threshold: float
    #: Percentile in (0, 1) to read from the window sketch, or ``None`` to
    #: use ``aggregate`` instead.
    percentile: Optional[float] = 0.99
    #: Window aggregate when ``percentile`` is None: mean/rate/count/min/max.
    aggregate: str = "mean"
    #: ``"above"`` breaches when the value exceeds the threshold (latency
    #: metrics); ``"below"`` when it falls under it (satisfaction rates).
    comparison: str = "above"
    #: Consecutive violating (resp. clearing) windows to breach (recover).
    windows: int = 1
    #: Recovery band: recover only once clear of the threshold by this much.
    hysteresis: float = 0.0
    #: Minimum simulated seconds between fired actions while breached.
    cooldown_s: float = 0.0
    #: Registered action name (see :mod:`repro.qos.actions`).
    action: str = "log"
    action_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Stable label; defaults to ``metric:stat<op>threshold``.
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            op = ">" if self.comparison == "above" else "<"
            self.name = f"{self.metric}:{self.stat_label}{op}{self.threshold:g}"

    # ------------------------------------------------------------------
    # Derived labels.
    # ------------------------------------------------------------------
    @property
    def stat_label(self) -> str:
        """``p99`` / ``mean`` / ... — the statistic this target watches."""
        if self.percentile is not None:
            return quantile_label(self.percentile)
        return self.aggregate

    def violated(self, value: float) -> bool:
        return value > self.threshold if self.comparison == "above" \
            else value < self.threshold

    def cleared(self, value: float) -> bool:
        """Inside the recovery band (threshold cleared by the hysteresis)."""
        return value <= self.threshold - self.hysteresis \
            if self.comparison == "above" \
            else value >= self.threshold + self.hysteresis

    # ------------------------------------------------------------------
    # Validation.
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.metric:
            raise ValueError("QosTarget.metric must be a stream name")
        if self.metric not in DEFAULT_STREAMS:
            # The controller's telemetry keeps only default streams, so a
            # target on any other name would never see a window close.
            raise ValueError(
                f"unknown qos metric {self.metric!r}: a target must watch "
                f"one of the telemetry streams {', '.join(DEFAULT_STREAMS)}")
        if self.percentile is not None and not 0.0 < self.percentile < 1.0:
            raise ValueError(
                f"percentile must be in (0, 1), got {self.percentile}")
        if self.percentile is None and self.aggregate not in AGGREGATES:
            raise ValueError(f"aggregate must be one of "
                             f"{', '.join(AGGREGATES)}, got {self.aggregate!r}")
        if self.comparison not in ("above", "below"):
            raise ValueError(
                f"comparison must be 'above' or 'below', got {self.comparison!r}")
        if self.windows < 1:
            raise ValueError("windows must be >= 1")
        if self.hysteresis < 0.0:
            raise ValueError("hysteresis must be non-negative")
        if self.cooldown_s < 0.0:
            raise ValueError("cooldown_s must be non-negative")
        from repro.qos.actions import resolve_action

        action = resolve_action(self.action)
        try:
            # The controller calls action(platform, target, now, **kwargs).
            inspect.signature(action).bind(None, self, 0.0,
                                           **self.action_kwargs)
        except TypeError as error:
            raise ValueError(f"qos action {self.action!r}: {error}") \
                from None

    # ------------------------------------------------------------------
    # Serialization (spec-hash participating: keys are stable).
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "metric": self.metric,
            "threshold": self.threshold,
            "percentile": self.percentile,
            "aggregate": self.aggregate,
            "comparison": self.comparison,
            "windows": self.windows,
            "hysteresis": self.hysteresis,
            "cooldown_s": self.cooldown_s,
            "action": self.action,
            "name": self.name,
        }
        if self.action_kwargs:
            data["action_kwargs"] = dict(self.action_kwargs)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QosTarget":
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"unknown qos target key {unknown[0]!r} (known: "
                             f"{', '.join(known)})")
        return cls(metric=data["metric"], threshold=data["threshold"],
                   percentile=data.get("percentile"),
                   aggregate=data.get("aggregate", "mean"),
                   comparison=data.get("comparison", "above"),
                   windows=int(data.get("windows", 1)),
                   hysteresis=float(data.get("hysteresis", 0.0)),
                   cooldown_s=float(data.get("cooldown_s", 0.0)),
                   action=data.get("action", "log"),
                   action_kwargs=dict(data.get("action_kwargs", {})),
                   name=data.get("name", ""))

    # ------------------------------------------------------------------
    # CLI shorthand.
    # ------------------------------------------------------------------
    @classmethod
    def from_string(cls, text: str) -> "QosTarget":
        """Parse ``metric:stat<op>threshold:action[,key=value...]``."""
        head, _, suffix = text.partition(",")
        parts = head.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"malformed qos target {text!r}; expected "
                f"metric:stat>threshold[:action][,key=value...]")
        metric, trigger = parts[0].strip(), parts[1].strip()
        action = parts[2].strip() if len(parts) == 3 else "log"
        comparison, op = ("above", ">") if ">" in trigger else ("below", "<")
        if op not in trigger:
            raise ValueError(f"qos target {text!r} needs a '>' or '<' trigger")
        stat, _, threshold_text = trigger.partition(op)
        stat = stat.strip().lower()
        try:
            threshold = float(threshold_text)
        except ValueError:
            raise ValueError(f"qos target {text!r}: threshold "
                             f"{threshold_text!r} is not a number") from None
        percentile: Optional[float] = None
        aggregate = "mean"
        if stat.startswith("p") and stat[1:].replace(".", "", 1).isdigit():
            percentile = float(stat[1:]) / 100.0
        elif stat in AGGREGATES:
            aggregate = stat
        else:
            raise ValueError(f"qos target {text!r}: unknown statistic "
                             f"{stat!r} (use pNN or one of "
                             f"{', '.join(AGGREGATES)})")
        fields: Dict[str, object] = {}
        action_kwargs: Dict[str, object] = {}
        if suffix:
            for pair in suffix.split(","):
                key, eq, value = pair.partition("=")
                key = key.strip()
                if not eq:
                    raise ValueError(f"qos target {text!r}: expected "
                                     f"key=value, got {pair!r}")
                if key in _SHORTHAND_FIELDS:
                    fields[key] = (value if key in _STR_FIELDS
                                   else int(value) if key in _INT_FIELDS
                                   else float(value))
                else:
                    action_kwargs[key] = _coerce(value.strip())
        return cls(metric=metric, threshold=threshold, percentile=percentile,
                   aggregate=aggregate, comparison=comparison, action=action,
                   action_kwargs=action_kwargs, **fields)


def _coerce(text: str) -> object:
    """Best-effort scalar coercion for action kwargs from the CLI."""
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


@dataclass
class QosConfig:
    """The ``qos`` block: targets plus the shared evaluation window."""

    targets: List[QosTarget] = field(default_factory=list)
    #: Tumbling-window length the controller's telemetry evaluates on.
    window_s: float = 300.0

    def validate(self) -> None:
        if not math.isfinite(self.window_s) or self.window_s <= 0.0:
            raise ValueError(
                f"qos window_s must be positive and finite, got {self.window_s}")
        seen = set()
        for target in self.targets:
            target.validate()
            if target.name in seen:
                raise ValueError(f"duplicate qos target name {target.name!r}")
            seen.add(target.name)

    def quantiles(self) -> Tuple[float, ...]:
        """Every percentile any target reads, in ascending order."""
        return tuple(sorted({t.percentile for t in self.targets
                             if t.percentile is not None}))

    def to_dict(self) -> Dict[str, object]:
        return {"window_s": self.window_s,
                "targets": [t.to_dict() for t in self.targets]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QosConfig":
        return cls(window_s=float(data.get("window_s", 300.0)),
                   targets=[QosTarget.from_dict(t)
                            for t in data.get("targets", [])])

    @classmethod
    def from_specs(cls, specs: Sequence[object],
                   window_s: float = 300.0) -> "QosConfig":
        """Normalize a mixed list of targets/dicts/shorthand strings."""
        targets: List[QosTarget] = []
        for spec in specs:
            if isinstance(spec, QosTarget):
                targets.append(spec)
            elif isinstance(spec, str):
                targets.append(QosTarget.from_string(spec))
            elif isinstance(spec, dict):
                targets.append(QosTarget.from_dict(spec))
            else:
                raise TypeError(f"cannot build a QosTarget from "
                                f"{type(spec).__name__}")
        return cls(targets=targets, window_s=window_s)
