"""``Message`` is an immutable, tuple-backed value."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.sim.messages import Message
from repro.sim.node import Process
from repro.sim.scheduler import Simulator


def test_fields_by_name_and_by_keyword():
    message = Message(sender=1, receiver=2, kind="PING", payload={"hops": 3})
    assert (message.sender, message.receiver, message.kind) == (1, 2, "PING")
    assert message.payload == {"hops": 3}
    assert Message(1, 2, "PING").payload == {}


@pytest.mark.parametrize("name", ["sender", "receiver", "kind", "payload", "other"])
def test_attribute_assignment_raises(name):
    message = Message(1, 2, "PING")
    with pytest.raises(AttributeError):
        setattr(message, name, 9)
    with pytest.raises(AttributeError):
        delattr(message, name)
    assert message == Message(1, 2, "PING")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    message = Message(1, 2, "PING", {"qid": 7, "path": (1, 2)})
    restored = pickle.loads(pickle.dumps(message, protocol=protocol))
    assert type(restored) is Message
    assert restored == message
    assert restored.payload == {"qid": 7, "path": (1, 2)}
    assert copy.deepcopy(message) == message


def test_equality_is_by_value():
    assert Message(1, 2, "PING", {"a": 1}) == Message(1, 2, "PING", {"a": 1})
    assert Message(1, 2, "PING") != Message(2, 1, "PING")
    assert Message(1, 2, "PING") != Message(1, 2, "PONG")
    assert Message(1, 2, "PING", {"a": 1}) != Message(1, 2, "PING", {"a": 2})


def test_repr_and_str():
    message = Message(1, 2, "PING", {"a": 1})
    assert repr(message) == (
        "Message(sender=1, receiver=2, kind='PING', payload={'a': 1})"
    )
    assert str(message) == "PING 1->2"


def test_reply_swaps_the_endpoints():
    message = Message(1, 2, "QUERY", {"qid": 4})
    echo = message.reply("ECHO", {"value": 5})
    assert echo == Message(2, 1, "ECHO", {"value": 5})
    assert message.reply("ACK").payload == {}


class _Recorder(Process):
    def __init__(self) -> None:
        super().__init__(0)
        self.received: list[str] = []

    def on_message(self, message: Message) -> None:
        self.received.append(str(message))


def _messages_seen() -> list[str]:
    sim = Simulator(seed=3)
    a = sim.spawn(_Recorder())
    b = sim.spawn(_Recorder(), [a.pid])
    a.send(b.pid, "PING", n=1)
    b.send(a.pid, "PONG")
    sim.run()
    return a.received + b.received


def test_identical_simulations_see_identical_messages():
    """No process-global counter leaks into a message: two identical
    simulations in one process deliver equal, equally printed messages."""
    assert _messages_seen() == _messages_seen() == ["PONG 1->0", "PING 0->1"]
