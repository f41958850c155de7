"""Declarative fault specifications.

The paper's core claim is that *dynamism is the adversary*: entities leave
without warning, links fail, delays spike.  :class:`FaultSpec` and
:class:`FaultPlan` make that adversary a first-class, declarative object —
plain, frozen, picklable data describing *when* and *how* the network
misbehaves, in the same mould as :class:`repro.churn.spec.ChurnSpec`.

A plan is compiled into simulator events by
:class:`repro.faults.injector.FaultInjector` only inside the worker that
runs the trial, so plans ride through :mod:`repro.engine.plan`'s grid
fan-out and the ProcessPool executor unchanged.

Determinism contract: an **empty** plan (``FaultPlan.none()``) resolves to
``None`` and installs nothing — a trial configured with it is byte-identical
to a trial with no plan at all (no extra RNG draws, no extra events, no
extra metrics keys).  All fault randomness draws from the dedicated
``"faults"`` seed stream, never from the transport stream, so adding a
fault window never perturbs the delays of messages outside it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from repro.sim.errors import ConfigurationError
from repro.wire import WireSpec

#: The fault vocabulary, mirroring the adversaries of the paper's two
#: dimensions: message-level mischief (geography as *quality*), link and
#: partition faults (geography as *reachability*), and crashes (the entity
#: dimension without the courtesy of a goodbye).
FAULT_KINDS = (
    "drop_burst",     # window: drop each message with `probability`
    "duplicate",      # window: re-deliver each message `copies` extra times
    "delay_spike",    # window: add `magnitude` delay (per-message, per-link)
    "link_flap",      # `count` flaps: sever a fraction of links, restore
    "partition",      # scheduled split (topology.partition), optional heal
    "crash",          # silent crash of `count` victims (no notify)
    "crash_rejoin",   # silent crash, then a fresh entity joins back
)

#: Kinds that act on individual messages through the send interposition
#: point (they need an open time window).
MESSAGE_KINDS = frozenset({"drop_burst", "duplicate", "delay_spike"})


@dataclass(frozen=True)
class FaultSpec(WireSpec):
    """One scheduled fault: a kind, a time window and its parameters.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        start: simulation time at which the fault activates.
        duration: window length for message-level kinds and the down time
            for ``link_flap``; for ``partition`` it is the time until the
            heal (``0`` = never heals).  Instantaneous kinds (``crash``,
            ``crash_rejoin``) ignore it.
        probability: per-message drop/duplicate/delay probability inside
            the window; for ``link_flap`` the fraction of current links
            severed per flap.
        magnitude: extra delay (time units) added by ``delay_spike``.
        copies: extra deliveries per duplicated message.
        count: victims per ``crash``/``crash_rejoin``; flaps per
            ``link_flap``.
        period: time between consecutive flaps.
        fraction: bisection fraction for ``partition``.
        rejoin_after: delay before a ``crash_rejoin`` victim's replacement
            entity joins (a *new* entity — ids are never reused).
        links: optional link whitelist as ``(a, b)`` pid pairs; restricts
            message-level faults and ``link_flap`` to those links
            (``None`` = every link).

    On the wire a spec is an element of its plan's ``specs`` list (no
    header; ``links`` appears only when set).
    """

    LABEL = "fault spec"
    OMIT_NONE = frozenset({"links"})

    kind: str
    start: float = 0.0
    duration: float = 0.0
    probability: float = 1.0
    magnitude: float = 0.0
    copies: int = 1
    count: int = 1
    period: float = 1.0
    fraction: float = 0.5
    rejoin_after: float = 10.0
    links: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; use one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.start < 0:
            raise ConfigurationError(f"fault start must be >= 0, got {self.start}")
        if self.duration < 0:
            raise ConfigurationError(
                f"fault duration must be >= 0, got {self.duration}"
            )
        if self.kind in MESSAGE_KINDS or self.kind == "link_flap":
            if self.duration <= 0:
                raise ConfigurationError(
                    f"{self.kind} needs a positive window duration, "
                    f"got {self.duration}"
                )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.magnitude < 0:
            raise ConfigurationError(
                f"delay magnitude must be >= 0, got {self.magnitude}"
            )
        if self.copies < 1:
            raise ConfigurationError(f"copies must be >= 1, got {self.copies}")
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if self.period <= 0:
            raise ConfigurationError(f"period must be > 0, got {self.period}")
        if not 0.0 < self.fraction < 1.0:
            raise ConfigurationError(
                f"partition fraction must be in (0, 1), got {self.fraction}"
            )
        if self.rejoin_after <= 0:
            raise ConfigurationError(
                f"rejoin_after must be > 0, got {self.rejoin_after}"
            )
        if self.links is not None:
            normalized = tuple(sorted(
                (min(int(a), int(b)), max(int(a), int(b)))
                for a, b in self.links
            ))
            for a, b in normalized:
                if a == b:
                    raise ConfigurationError(f"link ({a}, {b}) is a self-loop")
            object.__setattr__(self, "links", normalized)

    # ------------------------------------------------------------------
    # Schedule accounting
    # ------------------------------------------------------------------

    def window(self) -> tuple[float, float]:
        """The ``[start, end)`` interval during which the fault acts."""
        return (self.start, self.start + self.duration)

    def activations(self) -> int:
        """How many ``fault_injected`` activations this spec schedules.

        Every activation fires unconditionally at its scheduled time (even
        if, say, no crash victim is present), so for any plan executed past
        its :meth:`FaultPlan.end_time` the metrics counter
        ``faults.injected`` equals :meth:`FaultPlan.scheduled_count`
        exactly.
        """
        if self.kind == "link_flap":
            return self.count
        return 1

    def end_time(self) -> float:
        """The last simulation time at which this spec still acts."""
        if self.kind == "link_flap":
            return self.start + (self.count - 1) * self.period + self.duration
        if self.kind == "crash_rejoin":
            return self.start + self.rejoin_after
        if self.kind == "crash":
            return self.start
        return self.start + self.duration

    def _sort_key(self) -> tuple[Any, ...]:
        return (
            self.start, self.kind, self.duration, self.probability,
            self.magnitude, self.copies, self.count, self.period,
            self.fraction, self.rejoin_after, self.links or (),
        )


def _canonical(specs: Iterable[FaultSpec]) -> tuple[FaultSpec, ...]:
    return tuple(sorted(specs, key=FaultSpec._sort_key))


@dataclass(frozen=True)
class FaultPlan(WireSpec):
    """A composable, picklable schedule of faults.

    Specs are kept in canonical (start-time) order, so two plans built from
    the same specs in any order compare equal and compile to the identical
    event schedule — composition is order-insensitive by construction.  A
    spec may be given in its wire form (a mapping, see :class:`FaultSpec`).
    The wire format is ``repro-fault-plan`` v1 (:mod:`repro.wire`); an empty
    plan resolves to ``None``.
    """

    SCHEMA = "repro-fault-plan"
    LABEL = "fault plan"

    name: str = ""
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        specs = tuple(
            FaultSpec.from_dict(spec) if isinstance(spec, Mapping) else spec
            for spec in self.specs
        )
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"plan specs must be FaultSpec, got {type(spec).__name__}"
                )
        object.__setattr__(self, "specs", _canonical(specs))

    @classmethod
    def _active(cls, plan: "FaultPlan | None") -> "FaultPlan | None":
        return plan or None

    # ------------------------------------------------------------------
    # Construction & composition
    # ------------------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: resolves to no injector and changes nothing."""
        return cls(name="none")

    @classmethod
    def of(cls, *specs: FaultSpec, name: str = "") -> "FaultPlan":
        """Build a plan from specs given as positional arguments."""
        return cls(name=name, specs=tuple(specs))

    def compose(self, other: "FaultPlan", name: str | None = None) -> "FaultPlan":
        """Merge two plans into one (canonical order, both names joined)."""
        if name is None:
            parts = [part for part in (self.name, other.name) if part]
            name = "+".join(parts)
        return FaultPlan(name=name, specs=self.specs + other.specs)

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        return self.compose(other)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    # ------------------------------------------------------------------
    # Schedule accounting
    # ------------------------------------------------------------------

    def scheduled_count(self) -> int:
        """Total fault activations this plan schedules (see
        :meth:`FaultSpec.activations`)."""
        return sum(spec.activations() for spec in self.specs)

    def end_time(self) -> float:
        """When the last scheduled fault stops acting (0.0 if empty)."""
        return max((spec.end_time() for spec in self.specs), default=0.0)

    def kinds(self) -> tuple[str, ...]:
        """The distinct fault kinds in this plan, sorted."""
        return tuple(sorted({spec.kind for spec in self.specs}))

    def shifted(self, offset: float) -> "FaultPlan":
        """A copy with every spec's start moved by ``offset`` (>= 0 total)."""
        return FaultPlan(
            name=self.name,
            specs=tuple(
                replace(spec, start=spec.start + offset) for spec in self.specs
            ),
        )


#: The builtin plans, by name: the vocabulary of ``--fault-plan NAME`` and of
#: the string form of the ``faults`` config field.  Each is a small,
#: representative adversary sized so the stock E1–E21 trials (horizon ≈ 150,
#: activity in the first few tens of time units) feel it; the chaos audit
#: (``benchmarks/test_chaos_audit.py``) runs every one under the full
#: invariant-checker battery.  Plans are frozen, so sharing them is safe.
FAULT_PRESETS = FaultPlan.PRESETS = {
    # Message-level mischief: geography degrades in *quality*.
    "drop-storm": FaultPlan.of(
        FaultSpec("drop_burst", start=2.0, duration=10.0, probability=0.3),
        name="drop-storm",
    ),
    "dup-flood": FaultPlan.of(
        FaultSpec("duplicate", start=2.0, duration=10.0, probability=0.5,
                  copies=2),
        name="dup-flood",
    ),
    "jitter-spike": FaultPlan.of(
        FaultSpec("delay_spike", start=2.0, duration=10.0, probability=1.0,
                  magnitude=3.0),
        name="jitter-spike",
    ),
    # Geography degrades in *reachability*.
    "flaky-links": FaultPlan.of(
        FaultSpec("link_flap", start=2.0, duration=1.5, probability=0.2,
                  count=3, period=4.0),
        name="flaky-links",
    ),
    "split-brain": FaultPlan.of(
        FaultSpec("partition", start=3.0, duration=12.0, fraction=0.5),
        name="split-brain",
    ),
    # The entity dimension, without the courtesy of a goodbye.
    "silent-crash": FaultPlan.of(
        FaultSpec("crash", start=3.0, count=2),
        name="silent-crash",
    ),
    "amnesia": FaultPlan.of(
        FaultSpec("crash_rejoin", start=3.0, count=1, rejoin_after=5.0),
        name="amnesia",
    ),
    # Everything at once: the paper's adversary on a bad day.
    "chaos-mix": FaultPlan.of(
        FaultSpec("drop_burst", start=2.0, duration=8.0, probability=0.2),
        FaultSpec("delay_spike", start=6.0, duration=8.0, probability=0.5,
                  magnitude=2.0),
        FaultSpec("link_flap", start=4.0, duration=1.0, probability=0.15,
                  count=2, period=6.0),
        FaultSpec("crash", start=5.0, count=1),
        name="chaos-mix",
    ),
}

# The blessed functional spellings (repro.api) of the kernel methods.
fault_preset = FaultPlan.preset
resolve_faults = FaultPlan.resolve
