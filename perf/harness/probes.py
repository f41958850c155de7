"""The probes of the traced pass: which public entry points get wrapped.

:func:`install` replaces each entry point listed here with a
:class:`~harness.spans.Tracer` probe and returns the function that puts
every original back.  The probes live only for the traced pass; the
end-to-end metrics always come from passes that ran without them.

Two entry points need more than a plain wrapper:

* ``EventQueue.push`` hands the *event action* to the queue, and that
  action is where deliveries, timers and membership changes actually run.
  The push probe therefore also wraps the action in a folded probe keyed
  by the event's label prefix (``deliver:`` / ``timer:`` / ``join`` …),
  which is what separates ``sim.network:deliver`` from the scheduler loop.
* ``Process.on_*`` and ``AttachmentRule.choose`` are overridden per
  subclass, so every subclass that defines one is patched.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterator

from harness.spans import Tracer

#: ``Event.label`` prefix (text before the first ``:``) -> ledger key of
#: the event's action.  Anything else (``experiment:``, ``partition:``,
#: ``edge-churn``, unlabeled) is ``sim.scheduler:other_event``.
EVENT_KEYS = {
    "deliver": "sim.network:deliver",
    "timer": "sim.node:timer",
    "join": "churn:event",
    "leave": "churn:event",
    "churn": "churn:event",
    "fault": "faults:event",
    "resilience": "resilience:event",
}
OTHER_EVENT_KEY = "sim.scheduler:other_event"

#: The ``Process`` hooks counted as protocol handler calls.
HANDLER_HOOKS = (
    "on_start", "on_message", "on_timer",
    "on_neighbor_join", "on_neighbor_leave",
)


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class _Patcher:
    """Applies wrappers and remembers how to undo each one."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def method(
        self, cls: type, name: str, key: str,
        coarse: bool = False, outermost: bool = False,
    ) -> None:
        """Probe ``cls.name`` (plain method or classmethod)."""
        raw = vars(cls)[name]
        target = raw.__func__ if isinstance(raw, classmethod) else raw
        if coarse:
            probe = self.tracer.coarse(target, key)
        else:
            probe = self.tracer.fold(target, key, outermost=outermost)
        self._set(cls, name, classmethod(probe) if isinstance(raw, classmethod) else probe)

    def overrides(self, base: type, names: tuple[str, ...], key: str) -> None:
        """Probe every definition of ``names`` in ``base`` and below."""
        for cls in _subclasses(base):
            for name in names:
                if name in vars(cls):
                    self.method(cls, name, key, outermost=True)

    def function(
        self, fn: Callable[..., Any], key: str,
        ident_of: Callable[..., Any] | None = None,
    ) -> None:
        """Probe a module-level function under every name it was imported
        as (``from x import f`` leaves one reference per importer)."""
        probe = self.tracer.coarse(fn, key, ident_of=ident_of)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(("repro", "harness")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, probe)

    def remove(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)


def install(tracer: Tracer) -> Callable[[], None]:
    """Install every probe; returns the function that removes them all."""
    import repro.engine.executor as executor
    import repro.engine.plan as plan
    import repro.engine.results as results
    import repro.engine.trials as trials
    import repro.experiments.loader as loader
    import repro.experiments.runner as runner
    from repro.churn.models import ChurnModel
    from repro.core.runs import Run
    from repro.core.spec import OneTimeQuerySpec
    from repro.engine.recovery import checkpoint
    from repro.engine.telemetry import TelemetryRecorder
    from repro.experiments.schema import ExperimentDef
    from repro.faults import injector
    from repro.obs.metrics import Metrics
    from repro.resilience import transport
    from repro.sim.events import CalendarEventQueue, EventQueue, HeapEventQueue
    from repro.sim.network import Network
    from repro.sim.node import Process
    from repro.sim.scheduler import Simulator
    from repro.sim.trace import TraceLog
    from repro.topology import generators
    from repro.topology.attachment import AttachmentRule

    patch = _Patcher(tracer)
    try:
        # -- experiments / engine skeleton (coarse spans) ---------------
        patch.function(loader.load_experiment, "experiments:load")
        patch.function(runner.run_experiment, "experiments:run")
        patch.function(runner.check_expectations, "experiments:verdict")
        patch.method(ExperimentDef, "to_plan", "experiments:to_plan", coarse=True)
        patch.function(plan.build_plan, "engine.plan:build")
        patch.function(executor.run_plan, "engine.executor:run_plan")
        patch.function(executor.stream_plan, "engine.executor:stream_plan")
        patch.function(
            executor.execute_trial, "engine.trials:trial",
            ident_of=lambda spec: spec.index,
        )
        patch.function(trials.build_population, "engine.trials:build")
        patch.method(results.ResultStore, "to_json", "engine.results:to_json", coarse=True)
        patch.function(results.load_document, "engine.results:load")
        patch.method(results.StreamingResultStore, "append", "engine.results:append")
        patch.function(checkpoint.load_checkpoint, "engine.recovery:load")
        patch.method(checkpoint.CheckpointWriter, "append", "engine.recovery:append")
        for hook in ("open_run", "close", "record_trial", "record_warmup",
                     "begin_dispatch", "end_dispatch", "record_chunk"):
            patch.method(TelemetryRecorder, hook, f"engine.telemetry:{hook}")

        # -- per-trial phases (coarse) ----------------------------------
        patch.function(generators.make, "topology:generate")
        patch.method(ChurnModel, "install", "churn:install", coarse=True)
        patch.function(injector.install_plan, "faults:install")
        patch.function(transport.install_resilience, "resilience:install")
        patch.method(Simulator, "run", "sim.scheduler:run", coarse=True)
        patch.method(Run, "from_trace", "core:run_from_trace", coarse=True)
        patch.method(OneTimeQuerySpec, "check_query", "core:check_query", coarse=True)

        # -- per-event entry points (folded) ----------------------------
        patch.method(Simulator, "step", "sim.scheduler:step")
        patch.method(Simulator, "spawn", "sim.scheduler:spawn")
        patch.method(Simulator, "kill", "sim.scheduler:kill")
        patch.method(Network, "send", "sim.network:send")
        patch.method(Network, "add_process", "sim.network:membership")
        patch.method(Network, "remove_process", "sim.network:membership")
        patch.method(TraceLog, "record", "sim.trace:record")
        for write in ("inc", "observe", "set_gauge"):
            patch.method(Metrics, write, "obs.metrics:write")
        patch.method(injector.FaultInjector, "send_effect", "faults:send_effect")
        patch.method(transport.ReliableTransport, "outbound", "resilience:outbound")
        patch.method(transport.ReliableTransport, "inbound", "resilience:inbound")
        patch.overrides(Process, HANDLER_HOOKS, "protocols:handler")
        patch.overrides(AttachmentRule, ("choose",), "topology:attach")

        # -- the event queue -------------------------------------------
        # EventQueue rebinds pop (and, once promoted, push) to its backend's
        # bound methods, so the backends are what gets probed; the heap's
        # push is reached through the facade and is probed there.
        patch.method(HeapEventQueue, "pop", "sim.events:pop")
        patch.method(CalendarEventQueue, "pop", "sim.events:calendar_pop")
        other = tracer.slot(OTHER_EVENT_KEY)
        event_slots = {
            prefix: tracer.slot(key) for prefix, key in EVENT_KEYS.items()
        }
        for queue_cls in (EventQueue, CalendarEventQueue):
            patch.method(queue_cls, "push", "sim.events:push")
            folded_push = vars(queue_cls)["push"]

            def push(
                queue: Any, time: float, action: Callable[[], Any],
                _push: Callable[..., Any] = folded_push, **options: Any,
            ) -> Any:
                prefix = options.get("label", "").partition(":")[0]
                return _push(
                    queue, time,
                    tracer.timed(action, event_slots.get(prefix, other)),
                    **options,
                )

            setattr(queue_cls, "push", push)
    except BaseException:
        patch.remove()
        raise
    return patch.remove
