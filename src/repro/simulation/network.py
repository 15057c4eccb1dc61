"""A latency-modelled message-passing network.

Endpoints are reachable at a :class:`NetworkAddress`.  Sending a
:class:`Message` delivers it into the destination's inbox
(:class:`~repro.simulation.queues.Store`) after a per-link latency drawn from
the link's latency model.

Links can also be configured to *drop* or *duplicate* messages with a given
probability and to be partitioned and healed at runtime.  No replay builds a
network: the platform models its control-plane hops as latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.simulation.engine import Environment
from repro.simulation.events import Event
from repro.simulation.queues import Store

NetworkAddress = str


@dataclass
class Message:
    """A message in flight between two network endpoints."""

    message_id: int
    source: NetworkAddress
    destination: NetworkAddress
    kind: str
    payload: Any = None
    size_bytes: int = 0
    sent_at: float = 0.0
    delivered_at: float = 0.0

    @property
    def latency(self) -> float:
        """End-to-end delivery latency in seconds."""
        return self.delivered_at - self.sent_at


@dataclass
class Link:
    """Latency / loss characteristics for one directed pair of endpoints.

    ``duplicate_probability`` models at-least-once delivery (retransmitting
    middleboxes, retried RPCs): each sent message is delivered a second time
    with that probability, after an independently drawn delay.
    """

    latency_fn: Callable[[], float]
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    bandwidth_bytes_per_sec: Optional[float] = None
    partitioned: bool = False

    def delivery_delay(self, size_bytes: int) -> float:
        """Total propagation + transmission delay for a message of ``size_bytes``."""
        delay = max(0.0, self.latency_fn())
        if self.bandwidth_bytes_per_sec and size_bytes > 0:
            delay += size_bytes / self.bandwidth_bytes_per_sec
        return delay


class Network:
    """Routes messages between registered endpoints with configurable links."""

    def __init__(self, env: Environment,
                 default_latency: float = 0.0005,
                 rng: Optional[Any] = None) -> None:
        self.env = env
        self.default_latency = default_latency
        self._rng = rng
        self._inboxes: Dict[NetworkAddress, Store] = {}
        self._links: Dict[Tuple[NetworkAddress, NetworkAddress], Link] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Topology management.
    # ------------------------------------------------------------------
    def register(self, address: NetworkAddress) -> Store:
        """Register ``address`` and return its inbox."""
        if address in self._inboxes:
            return self._inboxes[address]
        inbox = Store(self.env, name=f"inbox:{address}")
        self._inboxes[address] = inbox
        return inbox

    def unregister(self, address: NetworkAddress) -> None:
        """Remove an endpoint."""
        self._inboxes.pop(address, None)

    def is_registered(self, address: NetworkAddress) -> bool:
        return address in self._inboxes

    def set_link(self, source: NetworkAddress, destination: NetworkAddress,
                 link: Link, bidirectional: bool = True) -> None:
        """Install an explicit link model between two endpoints."""
        self._links[(source, destination)] = link
        if bidirectional:
            self._links[(destination, source)] = link

    def link_for(self, source: NetworkAddress, destination: NetworkAddress) -> Link:
        link = self._links.get((source, destination))
        if link is None:
            link = Link(latency_fn=lambda: self.default_latency)
            self._links[(source, destination)] = link
        return link

    def partition(self, source: NetworkAddress, destination: NetworkAddress,
                  bidirectional: bool = True) -> None:
        """Stop delivering messages between two endpoints."""
        self.link_for(source, destination).partitioned = True
        if bidirectional:
            self.link_for(destination, source).partitioned = True

    def heal(self, source: NetworkAddress, destination: NetworkAddress,
             bidirectional: bool = True) -> None:
        """Resume delivery between two endpoints."""
        self.link_for(source, destination).partitioned = False
        if bidirectional:
            self.link_for(destination, source).partitioned = False

    def isolate(self, address: NetworkAddress) -> None:
        """Partition ``address`` from every other registered endpoint."""
        for other in list(self._inboxes):
            if other != address:
                self.partition(address, other)

    def rejoin(self, address: NetworkAddress) -> None:
        """Heal all partitions involving ``address``."""
        for other in list(self._inboxes):
            if other != address:
                self.heal(address, other)

    # ------------------------------------------------------------------
    # Message delivery.
    # ------------------------------------------------------------------
    def inbox(self, address: NetworkAddress) -> Store:
        """The inbox store for ``address`` (must be registered)."""
        try:
            return self._inboxes[address]
        except KeyError:
            raise KeyError(f"network endpoint {address!r} is not registered") from None

    def send(self, source: NetworkAddress, destination: NetworkAddress,
             kind: str, payload: Any = None, size_bytes: int = 0) -> Optional[Message]:
        """Send a message; returns it, or ``None`` if it was dropped."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        message = Message(message_id=self.env.next_serial("message"),
                          source=source, destination=destination, kind=kind,
                          payload=payload, size_bytes=size_bytes,
                          sent_at=self.env.now)
        link = self.link_for(source, destination)
        if link.partitioned or self._should_drop(link):
            self.messages_dropped += 1
            return None
        delay = link.delivery_delay(size_bytes)
        # defer() skips the Timeout allocation: one deferred call per message.
        self.env.defer(delay, lambda _call: self._deliver(message))
        if link.duplicate_probability > 0 and self._rng is not None \
                and self._rng.random() < link.duplicate_probability:
            self.messages_duplicated += 1
            self.env.defer(link.delivery_delay(size_bytes),
                           lambda _call: self._deliver(message))
        return message

    def _deliver(self, message: Message) -> None:
        inbox = self._inboxes.get(message.destination)
        if inbox is None:
            # Destination disappeared while the message was in flight.
            self.messages_dropped += 1
            return
        message.delivered_at = self.env.now
        inbox.put(message)

    def _should_drop(self, link: Link) -> bool:
        if link.drop_probability <= 0:
            return False
        if self._rng is None:
            return False
        return self._rng.random() < link.drop_probability

    # ------------------------------------------------------------------
    # Convenience request/response helper.
    # ------------------------------------------------------------------
    def rpc(self, source: NetworkAddress, destination: NetworkAddress,
            kind: str, payload: Any = None, size_bytes: int = 0) -> Event:
        """Send a message and return an event the sender can wait on.

        The callee is expected to reply by triggering ``payload['reply_to']``.
        A lightweight convenience for RPCs whose request/response pairing
        is one-to-one.
        """
        reply = self.env.event()
        wrapped = {"request": payload, "reply_to": reply}
        self.send(source, destination, kind, wrapped, size_bytes=size_bytes)
        return reply
