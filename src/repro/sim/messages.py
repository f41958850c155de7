"""Message objects exchanged by simulated processes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

#: Global message id counter; ids are unique within a Python process, which
#: is sufficient because a Simulator never mixes messages across simulations.
_message_ids = itertools.count()


@dataclass(frozen=True, slots=True)
class Message:
    """An immutable protocol message.

    Attributes:
        sender: entity id of the sending process.
        receiver: entity id of the destination process.
        kind: protocol-level message type tag (e.g. ``"QUERY"``).
        payload: arbitrary immutable protocol data (dict by convention).
        msg_id: unique id, used for tracing and duplicate accounting.
    """

    sender: int
    receiver: int
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=_message_ids.__next__)

    def reply(self, kind: str, payload: dict[str, Any] | None = None) -> "Message":
        """Build a response message addressed back to the sender."""
        return Message(
            sender=self.receiver,
            receiver=self.sender,
            kind=kind,
            payload=payload or {},
        )

    def __str__(self) -> str:
        return f"{self.kind}#{self.msg_id} {self.sender}->{self.receiver}"
