"""Pluggable execution backends for the epoch MLP simulator.

A :class:`Backend` is a strategy for *executing* a simulation; it never
changes what is simulated.  Every backend consumes the same inputs as
:meth:`repro.core.mlpsim.MlpSimulator.run` — a configuration plus an
annotated trace, with the optional shard/checkpoint hooks — and must
produce a bit-identical :class:`~repro.core.results.SimulationResult`.
The differential suite (``tests/test_backends.py``) enforces that promise
against the ``reference`` oracle for every registered backend.

The lifecycle is three calls::

    state  = backend.prepare(config, trace, ...)   # build simulator state
    events = backend.advance(state)                # one epoch; None when done
    result = backend.finish(state)                 # drain + finalize

``advance`` returns the :class:`~repro.core.epoch.EpochRecord` events the
epoch committed (often an empty list — epochs that overlap no misses leave
no record), and ``None`` once the run has completed; ``finish`` is
idempotent after completion.  :meth:`Backend.simulate` wraps the three
into the familiar one-shot call.

Registered implementations:

``reference``
    The tick loop of :class:`~repro.core.mlpsim.MlpSimulator`, extracted by
    code motion into :class:`EpochDriver`.  The golden oracle; its one-shot
    path delegates straight to ``MlpSimulator.run`` so the measured hot
    loop is byte-for-byte the pre-refactor one.
``event``
    Event-driven epoch scanning (:mod:`repro.core.backends.events`): a
    precomputed next-interesting-position table lets quiescent spans be
    skipped in O(1) instead of iterated.

Backend selection threads through every layer (api, CLI ``--backend``,
engine job specs, service protocol).  ``resolve_backend(None)`` honours the
``REPRO_BACKEND`` environment variable before falling back to
``reference``, which is what lets CI run the whole tier-1 suite under each
backend without touching the tests.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Tuple

from ..config import SimulationConfig
from ..errors import CheckpointCorruptError, ShardBoundaryError, UnknownBackendError
from ..memory.annotate import AnnotatedTrace
from .epoch import EpochRecord
from .mlpsim import MlpSimulator
from .results import SimulationResult
from .scoreboard import RegisterScoreboard
from .snapshot import (
    SNAPSHOT_VERSION,
    SimulatorSnapshot,
    capture_snapshot,
    is_quiescent,
    restore_simulation,
)
from .store_unit import StoreUnit
from .window import EpochAccountant, WindowObserver, WindowState

__all__ = [
    "DEFAULT_BACKEND",
    "Backend",
    "EpochDriver",
    "ReferenceBackend",
    "backend_names",
    "register_backend",
    "resolve_backend",
]

#: The backend used when neither the caller nor ``REPRO_BACKEND`` chooses.
DEFAULT_BACKEND = "reference"

#: Environment variable consulted by :func:`resolve_backend` when the
#: caller passes no explicit name — the CI backend matrix sets it.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class EpochDriver:
    """One simulation run, advanced one epoch at a time.

    This is :meth:`MlpSimulator.run` split at its loop boundary by code
    motion: the constructor is the preamble (resume validation, state
    construction, checkpoint-mark arithmetic), :meth:`advance` is one
    iteration of the epoch loop including the cold instrumentation block,
    and :meth:`finish` is the final drain.  The per-epoch work itself still
    runs through the simulator's ``_scan_window``/``_close_epoch``, so a
    subclass of :class:`MlpSimulator` (the event backend) plugs in
    unchanged.
    """

    __slots__ = (
        "simulator",
        "trace",
        "state",
        "accountant",
        "_n",
        "_stop",
        "_checkpoint_every",
        "_checkpoint_sink",
        "_quiescent_log",
        "_instrumented",
        "_next_mark",
        "_attached",
        "_done",
        "_result",
    )

    def __init__(
        self,
        simulator: MlpSimulator,
        trace: AnnotatedTrace,
        observer: WindowObserver | None = None,
        *,
        resume: SimulatorSnapshot | None = None,
        stop: int | None = None,
        checkpoint_every: int = 0,
        checkpoint_sink: Optional[
            Callable[[SimulatorSnapshot], None]
        ] = None,
        quiescent_log: Optional[List[Tuple[int, int]]] = None,
    ) -> None:
        core = simulator.core
        n = len(trace)
        stagnation_limit = core.store_queue + core.store_buffer + 8
        attached_observer = (
            observer if observer is not None else simulator.observer
        )
        if resume is not None:
            if resume.version != SNAPSHOT_VERSION:
                raise CheckpointCorruptError(
                    f"snapshot version {resume.version} != "
                    f"{SNAPSHOT_VERSION}"
                )
            if resume.instructions != n:
                raise CheckpointCorruptError(
                    f"snapshot belongs to a {resume.instructions}-instruction "
                    f"trace, got {n} instructions"
                )
            state, accountant = restore_simulation(
                resume, core, stagnation_limit, observer=attached_observer,
            )
        else:
            accountant = EpochAccountant(instructions=n)
            state = WindowState(
                scoreboard=RegisterScoreboard(),
                store_unit=StoreUnit(core),
                stagnation_limit=stagnation_limit,
                observer=attached_observer,
            )
        self.simulator = simulator
        self.trace = trace
        self.state = state
        self.accountant = accountant
        self._n = n
        self._stop = stop
        self._checkpoint_every = checkpoint_every
        self._checkpoint_sink = checkpoint_sink
        self._quiescent_log = quiescent_log
        self._instrumented = (
            stop is not None or quiescent_log is not None
            or (checkpoint_every > 0 and checkpoint_sink is not None)
        )
        self._next_mark = 0
        if checkpoint_every > 0:
            self._next_mark = (
                state.pos // checkpoint_every + 1
            ) * checkpoint_every
        self._attached = state.observer
        self._done = False
        self._result: Optional[SimulationResult] = None

    @property
    def done(self) -> bool:
        return self._done

    def advance(self) -> Optional[List[EpochRecord]]:
        """Run one epoch; return the records it committed, ``None`` if done."""
        if self._done:
            return None
        state = self.state
        accountant = self.accountant
        simulator = self.simulator
        epochs = accountant.result.epochs
        before = len(epochs)

        state.begin_epoch()
        if self._attached is not None:
            self._attached.on_epoch_begin(state)
        simulator._scan_window(self.trace, state, accountant)
        misses = simulator._close_epoch(self.trace, state, accountant)
        state.advance_epoch()
        events = epochs[before:]
        if (
            state.pos >= self._n
            and not state.replay
            and state.store_unit.all_completed(state.cur)
        ):
            self._done = True
            return events
        state.check_progress(misses)
        if self._instrumented:
            pos = state.pos
            stop = self._stop
            if stop is not None and pos >= stop:
                if pos != stop or not is_quiescent(state):
                    raise ShardBoundaryError(
                        f"planned shard boundary {stop} was not reached "
                        f"quiescently (cursor at {pos}); the shard plan "
                        f"does not match this trace/configuration"
                    )
                # The unit is drained at a quiescent boundary, so
                # finalize only copies the accumulated store statistics.
                accountant.result.instructions = stop
                self._result = accountant.finalize(state.store_unit)
                self._done = True
                return events
            if (
                self._quiescent_log is not None
                and 0 < pos < self._n
                and is_quiescent(state)
            ):
                self._quiescent_log.append((pos, state.cur))
            if (
                self._checkpoint_every > 0
                and self._checkpoint_sink is not None
                and pos >= self._next_mark
            ):
                self._checkpoint_sink(
                    capture_snapshot(state, accountant, self._n)
                )
                self._next_mark = (
                    pos // self._checkpoint_every + 1
                ) * self._checkpoint_every
        return events

    def finish(self) -> SimulationResult:
        """Drain outstanding work and return the finalized result."""
        while not self._done:
            self.advance()
        if self._result is None:
            # Final drain: entries whose misses completed in the last epoch
            # are committed here so bandwidth accounting covers every store.
            self.state.store_unit.pump(self.state.cur + 1)
            self._result = self.accountant.finalize(self.state.store_unit)
        return self._result


class Backend(ABC):
    """One execution strategy for the epoch MLP simulation."""

    #: Registry key and wire-protocol spelling.
    name: str = ""

    @abstractmethod
    def prepare(
        self,
        config: SimulationConfig,
        trace: AnnotatedTrace,
        observer: WindowObserver | None = None,
        *,
        resume: SimulatorSnapshot | None = None,
        stop: int | None = None,
        checkpoint_every: int = 0,
        checkpoint_sink: Optional[
            Callable[[SimulatorSnapshot], None]
        ] = None,
        quiescent_log: Optional[List[Tuple[int, int]]] = None,
    ) -> EpochDriver:
        """Build the execution state for one simulation run."""

    def advance(self, state: EpochDriver) -> Optional[List[EpochRecord]]:
        """Advance *state* one epoch; epoch events, or ``None`` when done."""
        return state.advance()

    def finish(self, state: EpochDriver) -> SimulationResult:
        """Finalize *state* into its :class:`SimulationResult`."""
        return state.finish()

    def simulate(
        self,
        config: SimulationConfig,
        trace: AnnotatedTrace,
        observer: WindowObserver | None = None,
        **kwargs,
    ) -> SimulationResult:
        """One-shot convenience: prepare, run to completion, finish."""
        state = self.prepare(config, trace, observer, **kwargs)
        while self.advance(state) is not None:
            pass
        return self.finish(state)


class ReferenceBackend(Backend):
    """The golden oracle: the unmodified tick loop.

    ``simulate`` bypasses the stepwise driver and calls
    :meth:`MlpSimulator.run` directly, keeping the benchmark-gated hot path
    exactly the pre-refactor code; the prepare/advance/finish form drives
    the same scan through :class:`EpochDriver`.
    """

    name = "reference"

    def prepare(self, config, trace, observer=None, **kwargs):
        return EpochDriver(
            MlpSimulator(config), trace, observer, **kwargs,
        )

    def simulate(self, config, trace, observer=None, **kwargs):
        return MlpSimulator(config).run(trace, observer, **kwargs)


_REGISTRY: Dict[str, Backend] = {}
_BUILTINS_LOADED = False


def register_backend(backend: Backend) -> Backend:
    """Register *backend* under its ``name`` (later wins, like a dict)."""
    if not backend.name:
        raise ValueError("backend must define a non-empty name")
    _REGISTRY[backend.name] = backend
    return backend


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    # Imported lazily: repro.core.backends imports this module.
    from . import backends  # noqa: F401


def backend_names() -> Tuple[str, ...]:
    """Names of all registered backends, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def resolve_backend(name: Optional[str] = None) -> Backend:
    """Resolve *name* (or ``$REPRO_BACKEND``, or the default) to a backend.

    Raises :class:`~repro.errors.UnknownBackendError` for anything not
    registered.
    """
    _ensure_builtins()
    chosen = name or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    try:
        return _REGISTRY[chosen]
    except KeyError:
        raise UnknownBackendError(
            f"unknown execution backend {chosen!r}; "
            f"registered backends: {', '.join(sorted(_REGISTRY))}"
        ) from None


register_backend(ReferenceBackend())
