"""WS-Coordination / WS-AtomicTransaction style coordinator.

The paper deliberately keeps 2PC out of the XRPC protocol proper and
relies on the WS-AtomicTransaction industry standard.  This module
provides the coordinator object in that architecture: peers are
*registered* for a transaction (the originating peer knows them all via
the participating-peer piggyback), then the coordinator drives
Prepare/Commit — or Rollback on any 'no' vote.

It is the one 2PC driver: :meth:`~repro.rpc.peer.XRPCPeer.execute_query`
runs every updating transaction through it, and tests drive it directly
for the failure paths (participant votes no, late commit, coordinator
crash and resume, ...).  Each command is sent through the query's
:class:`~repro.rpc.client.ClientSession`, so it carries a fresh exchange
id and the query's remaining deadline and — when the session has a
resilience channel — is retried under the channel's policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TransactionError, TransportError
from repro.rpc.client import ClientSession
from repro.soap.messages import TxnResult


@dataclass
class TransactionOutcome:
    committed: bool
    votes: dict[str, bool] = field(default_factory=dict)
    detail: str = ""


class TransactionCoordinator:
    """Drives 2PC for one distributed transaction (one queryID).

    *session* is the transaction's client session; its ``query_id``
    names the transaction at every participant.
    """

    def __init__(self, session: ClientSession) -> None:
        if session.query_id is None:
            raise TransactionError("2PC requires a session with a queryID")
        self.session = session
        self._participants: list[str] = []
        self.state = "active"  # active | prepared | committed | aborted

    @classmethod
    def resume(cls, session: ClientSession,
               participants: list[str]) -> "TransactionCoordinator":
        """Rebuild a coordinator from its durable record after a crash.

        A real implementation reads the participant list and the
        prepared mark from the coordinator's stable log; tests hand them
        in directly.  The resumed coordinator starts ``prepared``, so
        the only legal moves are replaying the decision: ``commit`` or
        ``rollback`` — both answered idempotently by participants'
        decision logs.
        """
        coordinator = cls(session)
        coordinator._participants = list(participants)
        coordinator.state = "prepared"
        return coordinator

    def register(self, participant: str) -> None:
        """WS-Coordination registration of a participating peer."""
        if self.state != "active":
            raise TransactionError(
                f"cannot register participants in state {self.state!r}")
        if participant not in self._participants:
            self._participants.append(participant)

    @property
    def participants(self) -> list[str]:
        return list(self._participants)

    def prepare(self) -> TransactionOutcome:
        """Phase 1: collect votes; abort everyone on the first 'no'.

        An unreachable participant counts as a 'no' vote (presumed
        abort): everyone already prepared is rolled back best-effort.
        """
        outcome = TransactionOutcome(committed=False)
        prepared: list[str] = []
        for participant in self._participants:
            try:
                vote = self.session.send_txn_command(participant, "prepare")
            except TransportError as exc:
                vote = TxnResult(kind="prepare", ok=False,
                                 detail=f"unreachable: {exc}")
            outcome.votes[participant] = vote.ok
            if not vote.ok:
                outcome.detail = (f"participant {participant} failed at "
                                  f"prepare: {vote.detail}")
                for already in prepared:
                    self._try_rollback(already)
                self.state = "aborted"
                return outcome
            prepared.append(participant)
        self.state = "prepared"
        return outcome

    def commit(self) -> TransactionOutcome:
        """Phase 2: commit everyone (requires a successful prepare).

        Once prepared, commit is the decision: an unreachable
        participant leaves the coordinator ``prepared`` so the decision
        can be replayed on reconnect (participants answer replays from
        their decision logs).
        """
        if self.state != "prepared":
            raise TransactionError(
                f"commit requires prepared state, not {self.state!r}")
        outcome = TransactionOutcome(committed=True)
        unreachable = False
        for participant in self._participants:
            try:
                ack = self.session.send_txn_command(participant, "commit")
            except TransportError as exc:
                unreachable = True
                outcome.votes[participant] = False
                outcome.committed = False
                outcome.detail = (
                    f"participant {participant} unreachable at commit "
                    f"(decision logged; replay the commit on reconnect): "
                    f"{exc}")
                continue
            outcome.votes[participant] = ack.ok
            if not ack.ok:
                outcome.committed = False
                outcome.detail = (f"participant {participant} failed at "
                                  f"commit: {ack.detail}")
        if outcome.committed:
            self.state = "committed"
        elif unreachable:
            self.state = "prepared"  # decision stands: replay later
        else:
            self.state = "aborted"
        return outcome

    def rollback(self) -> None:
        for participant in self._participants:
            self._try_rollback(participant)
        self.state = "aborted"

    def _try_rollback(self, participant: str) -> None:
        """Best-effort abort; an unreachable peer expires on its own."""
        try:
            self.session.send_txn_command(participant, "rollback")
        except TransportError:
            pass

    def run(self) -> TransactionOutcome:
        """Full 2PC: prepare then commit, rollback on any 'no' vote."""
        outcome = self.prepare()
        if self.state != "prepared":
            return outcome
        return self.commit()
