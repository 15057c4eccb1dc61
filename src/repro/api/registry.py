"""The pluggable scheduling-policy registry.

Policies declare themselves with :func:`register_policy` instead of being
hard-wired into ``core/platform.py``::

    from repro.api import register_policy
    from repro.policies import SchedulingPolicy

    @register_policy("my-policy", aliases=("mine",),
                     description="always pick host-0")
    class MyPolicy(SchedulingPolicy):
        name = "my-policy"
        ...

Every entry point that accepts a policy *name* — ``repro.api.Simulation``,
the ``repro.experiments`` sweeps and CLI, and the benchmarks — resolves it
through the default registry, so a registered policy is immediately runnable
everywhere (including by name in a :class:`~repro.api.RunSpec`, provided the
registration is importable in worker processes).

A registration captures the policy's *capabilities* — the attributes the
platform consults when wiring a run (whether the auto-scaler runs, the
kernel replication factor) — and the factory's tunable keyword arguments, so
tooling can introspect the policy surface without instantiating anything.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "DuplicatePolicyError",
    "PolicyCapabilities",
    "PolicyRegistry",
    "RegisteredPolicy",
    "UnknownPolicyError",
    "default_policy_registry",
    "register_policy",
]


class UnknownPolicyError(KeyError):
    """Raised when a policy name resolves to nothing."""


class DuplicatePolicyError(ValueError):
    """Raised when a name or alias is registered twice without ``replace``."""


@dataclass(frozen=True)
class PolicyCapabilities:
    """The declared platform-facing behaviour of a policy."""

    uses_autoscaler: bool = False
    replication_factor: int = 1


@dataclass(frozen=True)
class RegisteredPolicy:
    """One registry entry: name, factory, capabilities, tunable knobs."""

    name: str
    factory: Callable[..., object]
    aliases: Tuple[str, ...] = ()
    description: str = ""
    capabilities: PolicyCapabilities = PolicyCapabilities()
    config_fields: Tuple[str, ...] = ()

    def create(self, **kwargs) -> object:
        """Instantiate the policy with factory keyword arguments."""
        return self.factory(**kwargs)


def _capabilities_of(factory: Callable[..., object]) -> PolicyCapabilities:
    return PolicyCapabilities(
        uses_autoscaler=bool(getattr(factory, "uses_autoscaler", False)),
        replication_factor=int(getattr(factory, "replication_factor", 1)))


def _config_fields_of(factory: Callable[..., object]) -> Tuple[str, ...]:
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins / C factories
        return ()
    return tuple(name for name, parameter in signature.parameters.items()
                 if name != "self" and parameter.kind in
                 (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY))


class PolicyRegistry:
    """Case-insensitive name/alias -> :class:`RegisteredPolicy` lookup."""

    def __init__(self) -> None:
        self._entries: Dict[str, RegisteredPolicy] = {}
        self._lookup: Dict[str, RegisteredPolicy] = {}

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------
    def register(self, name: str, factory: Callable[..., object],
                 aliases: Tuple[str, ...] = (), description: str = "",
                 replace: bool = False) -> RegisteredPolicy:
        entry = RegisteredPolicy(
            name=name.lower(), factory=factory,
            aliases=tuple(alias.lower() for alias in aliases),
            description=description or (inspect.getdoc(factory) or "").split("\n")[0],
            capabilities=_capabilities_of(factory),
            config_fields=_config_fields_of(factory))
        claimed = (entry.name,) + entry.aliases
        if not replace:
            for key in claimed:
                if key in self._lookup:
                    raise DuplicatePolicyError(
                        f"policy name {key!r} is already registered to "
                        f"{self._lookup[key].name!r}; pass replace=True to "
                        f"override")
        previous = self._entries.pop(entry.name, None)
        if previous is not None:
            # Release only the keys still pointing at the replaced entry: an
            # alias it once claimed may have been legitimately re-registered
            # to another policy since (via an earlier replace=True).
            for key in (previous.name,) + previous.aliases:
                if self._lookup.get(key) is previous:
                    del self._lookup[key]
        self._entries[entry.name] = entry
        for key in claimed:
            self._lookup[key] = entry
        return entry

    def decorator(self, name: str, aliases: Tuple[str, ...] = (),
                  description: str = "", replace: bool = False):
        """``@registry.decorator("name")`` — register a policy class."""
        def register(factory):
            self.register(name, factory, aliases=aliases,
                          description=description, replace=replace)
            return factory
        return register

    # ------------------------------------------------------------------
    # Resolution.
    # ------------------------------------------------------------------
    def get(self, name: str) -> RegisteredPolicy:
        try:
            return self._lookup[name.lower()]
        except KeyError:
            raise UnknownPolicyError(
                f"unknown policy {name!r}; choose from "
                f"{sorted(self._entries)}") from None
        except AttributeError:
            raise TypeError(f"policy name must be a string, got {name!r}") from None

    def create(self, name: str, **kwargs) -> object:
        """Instantiate a policy by name or alias."""
        return self.get(name).create(**kwargs)

    def resolve(self, policy, **kwargs) -> object:
        """Turn a name *or* an already constructed policy into an instance."""
        if isinstance(policy, str):
            return self.create(policy, **kwargs)
        if kwargs:
            raise TypeError("policy kwargs are only valid with a policy name, "
                            f"not an instance ({policy!r})")
        return policy

    def names(self) -> List[str]:
        """Primary registered names (aliases excluded), sorted."""
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return isinstance(name, str) and name.lower() in self._lookup

    def __iter__(self) -> Iterator[RegisteredPolicy]:
        return iter(self._entries[name] for name in self.names())

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# The default (process-wide) registry.
# ----------------------------------------------------------------------
_DEFAULT_REGISTRY = PolicyRegistry()


def default_policy_registry() -> PolicyRegistry:
    """The process-wide registry, with the built-in policies registered.

    Importing :mod:`repro.policies` is what registers the built-ins (each
    policy class carries a :func:`register_policy` decoration), so this
    accessor imports it on every call — cheap after the first — before
    handing the registry out.
    """
    import repro.policies  # noqa: F401  - registration side effect

    return _DEFAULT_REGISTRY


def register_policy(name: str, aliases: Tuple[str, ...] = (),
                    description: str = "", replace: bool = False,
                    registry: Optional[PolicyRegistry] = None):
    """Class decorator registering a scheduling policy under ``name``.

    ``aliases`` are extra lookup names; ``replace=True`` allows overriding an
    existing registration (e.g. experiment-local variants).  By default the
    registration lands in the process-wide registry used by every entry
    point.
    """
    target = registry if registry is not None else _DEFAULT_REGISTRY
    return target.decorator(name, aliases=aliases, description=description,
                            replace=replace)
