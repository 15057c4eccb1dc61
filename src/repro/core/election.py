"""The executor replica election protocol (§3.2.2, Figure 5).

Each time a user submits a cell, every replica of the target kernel appends a
LEAD or YIELD proposal to the kernel's Raft log — LEAD if the replica's host
can bind the GPUs the task needs, YIELD otherwise (or when the Global
Scheduler converted its request into a ``yield_request``).  The first LEAD
proposal committed by Raft wins; every replica then appends a VOTE for the
winner.  If all replicas YIELD, the election fails and the Global Scheduler
migrates one replica to a host with available resources.

The protocol logic here is exact; the Raft round-trip latency of the
propose/commit/vote cycle is sampled from a calibrated latency model rather
than taken from a simulated Raft group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.simulation.distributions import SeededRandom, stable_seed


@dataclass(frozen=True)
class ReplicaProposal:
    """One replica's LEAD / YIELD proposal for an election."""

    replica_id: str
    host_id: str
    lead: bool
    reason: str = ""

    @property
    def proposal(self) -> str:
        return "LEAD" if self.lead else "YIELD"


@dataclass
class ElectionOutcome:
    """The result of one executor election."""

    election_id: int
    winner: Optional[ReplicaProposal]
    #: The list passed to :meth:`ExecutorElection.decide`, not a copy.
    proposals: List[ReplicaProposal] = field(default_factory=list)
    latency_s: float = 0.0
    converted_to_yield: int = 0

    @property
    def failed(self) -> bool:
        """All replicas yielded: the Global Scheduler must migrate a replica."""
        return self.winner is None

    @property
    def lead_count(self) -> int:
        return sum(1 for p in self.proposals if p.lead)

    def signature(self) -> tuple:
        """A compact, hashable record of everything this outcome decided.

        Determinism tests compare the signatures of two replays — equal
        signatures mean the same winner, the same sampled Raft latency
        (i.e. the same RNG stream position), the same yield conversions,
        and the same proposals in the same order.
        """
        return (self.election_id,
                self.winner.replica_id if self.winner is not None else None,
                self.latency_s,
                self.converted_to_yield,
                tuple((p.replica_id, p.host_id, p.lead)
                      for p in self.proposals))


@dataclass
class ElectionLatencyModel:
    """Latency of the propose → commit → vote cycle (tens of milliseconds)."""

    median_s: float = 0.018
    sigma: float = 0.6
    minimum_s: float = 0.004

    def sample(self, rng: SeededRandom) -> float:
        return max(self.minimum_s,
                   rng.lognormvariate(math.log(self.median_s), self.sigma))


class ExecutorElection:
    """Runs executor elections for one distributed kernel."""

    def __init__(self, kernel_id: str, rng: Optional[SeededRandom] = None,
                 latency_model: Optional[ElectionLatencyModel] = None) -> None:
        self.kernel_id = kernel_id
        self._rng = rng or SeededRandom(stable_seed(kernel_id))
        self.latency_model = latency_model or ElectionLatencyModel()
        self.elections_held = 0
        self.failed_elections = 0
        self.last_executor_id: Optional[str] = None

    def decide(self, proposals: List[ReplicaProposal],
               preferred_replica: Optional[str] = None) -> ElectionOutcome:
        """Decide an election given every replica's proposal.

        ``preferred_replica`` models the Global Scheduler short-circuit: when
        the scheduler has sufficient resource information it designates the
        executor directly and converts the other replicas' requests into
        ``yield_request`` messages, bypassing the LEAD race (§3.2.2).  The
        designated replica still only wins if it proposed LEAD.

        The outcome keeps ``proposals`` itself, not a copy: callers pass a
        list they do not reuse (:meth:`DistributedKernel.make_proposals`
        builds a fresh one per call).
        """
        if not proposals:
            raise ValueError("an election requires at least one proposal")
        self.elections_held += 1
        election_id = self.elections_held

        converted = 0
        winner: Optional[ReplicaProposal] = None
        if preferred_replica is not None:
            for proposal in proposals:
                if proposal.lead:
                    if proposal.replica_id != preferred_replica:
                        converted += 1
                    elif winner is None:
                        winner = proposal
            if winner is None:
                converted = 0
            # Otherwise the other LEADs become yield_requests and the
            # designated replica's own proposal wins as it stands.
        if winner is None:
            lead_proposals = [p for p in proposals if p.lead]
            if not lead_proposals:
                self.failed_elections += 1
            else:
                # Raft commits proposals in arrival order; with symmetric
                # links the first committed LEAD is effectively uniform
                # among the leaders — with a bias toward the previous
                # executor, whose proposal path is warm (this is what yields
                # the high executor-reuse fraction the paper reports in
                # §5.3.2).
                previous = [p for p in lead_proposals
                            if p.replica_id == self.last_executor_id]
                if previous and self._rng.random() < 0.9:
                    winner = previous[0]
                else:
                    winner = self._rng.choice(lead_proposals)

        outcome = ElectionOutcome(election_id=election_id, winner=winner,
                                  proposals=proposals,
                                  latency_s=self.latency_model.sample(self._rng),
                                  converted_to_yield=converted)
        if winner is not None:
            self.last_executor_id = winner.replica_id
        return outcome

    @property
    def failure_rate(self) -> float:
        if self.elections_held == 0:
            return 0.0
        return self.failed_elections / self.elections_held
