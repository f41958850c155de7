"""Message objects exchanged by simulated processes."""

from __future__ import annotations

# The C accessor ``collections.namedtuple`` builds its fields from (with
# the same pure-Python fallback ``collections`` defines).
from collections import _tuplegetter  # type: ignore[attr-defined]
from typing import Any

_tuple_new = tuple.__new__


class Message(tuple):
    """An immutable protocol message.

    A tuple underneath — ``(sender, receiver, kind, payload)``, in that
    order — built in one ``tuple.__new__`` (a frozen dataclass pays an
    ``object.__setattr__`` per field, on every send).  Attribute
    assignment raises ``AttributeError``; messages pickle and compare by
    value.  The per-event send sites in :mod:`repro.sim.node` build the
    tuple directly.

    Attributes:
        sender: entity id of the sending process.
        receiver: entity id of the destination process.
        kind: protocol-level message type tag (e.g. ``"QUERY"``).
        payload: arbitrary immutable protocol data (dict by convention).
    """

    __slots__ = ()
    __match_args__ = ("sender", "receiver", "kind", "payload")

    def __new__(
        cls,
        sender: int,
        receiver: int,
        kind: str,
        payload: dict[str, Any] | None = None,
    ) -> "Message":
        return _tuple_new(
            cls, (sender, receiver, kind, {} if payload is None else payload)
        )

    sender = _tuplegetter(0, "Entity id of the sending process.")
    receiver = _tuplegetter(1, "Entity id of the destination process.")
    kind = _tuplegetter(2, "Protocol-level message type tag.")
    payload = _tuplegetter(3, "Protocol data (dict by convention).")

    def __getnewargs__(self) -> tuple[Any, ...]:
        return tuple(self)

    def reply(self, kind: str, payload: dict[str, Any] | None = None) -> "Message":
        """Build a response message addressed back to the sender."""
        return Message(self.receiver, self.sender, kind, payload or {})

    def __repr__(self) -> str:
        return (
            f"Message(sender={self.sender!r}, receiver={self.receiver!r}, "
            f"kind={self.kind!r}, payload={self.payload!r})"
        )

    def __str__(self) -> str:
        return f"{self.kind} {self.sender}->{self.receiver}"
