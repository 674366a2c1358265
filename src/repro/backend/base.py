"""The ``ExecutionBackend`` seam.

A backend supplies the four execution facets the protocol layer
(:mod:`repro.protocol`) deliberately knows nothing about:

* **clock** — what "now" means (virtual event time vs. wall clock),
* **timers** — how an :class:`~repro.protocol.commands.AwaitMessage`
  timeout is realized (event-heap entry vs. condition-variable wait),
* **transport** — how a :class:`~repro.protocol.commands.Send` reaches
  the peer (simulated shared-bus Ethernet vs. in-process queues),
* **compute** — how a compute slice burns "work" (simulated load-model
  time vs. synthetic CPU-burn kernels).

The protocol objects emit commands; the backend interprets them.  The
discrete-event :class:`~repro.backend.sim.SimBackend` does so through
its own adapters (bit-identical to the pre-seam runtime); the thread,
process and socket backends share one interpreter,
:func:`repro.protocol.driver.drive`, and differ only in the port that
realizes its effects.

What each backend runs is one table, :data:`CAPABILITIES`, checked on
entry by :func:`check_run`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Callable, Iterable, Optional, TYPE_CHECKING, Union

from ..core.strategies.base import StrategySpec
from ..core.strategies.registry import get_strategy
from ..runtime.options import RunOptions

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.workload import LoopSpec
    from ..faults.plan import FaultPlan
    from ..machine.cluster import ClusterSpec
    from ..runtime.stats import LoopRunStats

__all__ = ["ExecutionBackend", "BackendError", "CAPABILITIES",
           "check_run", "get_backend", "join_or_terminate", "mp_context",
           "requested_features"]

StrategyLike = Union[str, "StrategySpec"]


class BackendError(ValueError):
    """A run was requested that this backend cannot execute."""


#: What runs where: each feature a run may ask for, and the backends
#: that execute it.  docs/ARCHITECTURE.md holds the same table.
CAPABILITIES: dict[str, frozenset[str]] = {
    "work-stealing": frozenset({"sim"}),
    "custom-selection": frozenset({"sim"}),
    "fault-injection": frozenset({"sim", "process", "socket"}),
    "non-crash-faults": frozenset({"sim"}),
    "fault-tolerance": frozenset({"sim", "process", "socket"}),
    "periodic-sync": frozenset({"sim"}),
    "staging": frozenset({"sim"}),
    "graph-topology": frozenset({"sim", "thread"}),
}

#: Why a backend lacking a feature refuses it; ``{backend}`` and
#: ``{mesh}`` (its flat transport) are filled in.
_REASONS = {
    "work-stealing": "the work-stealing baseline is simulation-only",
    "custom-selection": (
        "the CUSTOM model-based selection consults the simulated load "
        "model; pick a concrete strategy for --backend {backend}"),
    "fault-injection": (
        "fault injection is simulation-only (threads cannot be crashed "
        "safely from outside)"),
    "non-crash-faults": (
        "the {backend} backend lifts crash faults only; slowdowns, drops "
        "and delays remain simulation-only"),
    "fault-tolerance": (
        "the hardened protocol needs injectable faults; run it on the sim "
        "backend (tests/protocol exercises the transitions)"),
    "periodic-sync": "periodic synchronization is simulation-only",
    "staging": "staged scatter/gather is simulation-only",
    "graph-topology": (
        "graph topologies (and the diffusion strategy) run on the sim and "
        "thread backends; the {backend} transport is a flat {mesh} mesh"),
}
_MESH = {"process": "shared-memory", "socket": "TCP"}


def requested_features(spec: StrategySpec, options: RunOptions, selector,
                       fault_plan: Optional["FaultPlan"]) -> list[str]:
    """The :data:`CAPABILITIES` a run asks for, in checking order."""
    faults = fault_plan is not None and not fault_plan.empty
    wanted = {
        "work-stealing": spec.code == "WS",
        "custom-selection": spec.code == "CUSTOM" or selector is not None,
        "fault-injection": faults,
        "non-crash-faults": faults and bool(
            fault_plan.slowdowns or fault_plan.drops or fault_plan.delays),
        "fault-tolerance": options.fault_tolerance.enabled,
        "periodic-sync": options.sync_mode != "interrupt",
        "staging": options.include_staging,
        "graph-topology": options.topology is not None or spec.code == "DIFF",
    }
    return [feature for feature, on in wanted.items() if on]


def check_run(backend: str, strategy: StrategyLike, n: int,
              options: Optional[RunOptions], selector,
              fault_plan: Optional["FaultPlan"]
              ) -> tuple[StrategySpec, RunOptions, Optional["FaultPlan"]]:
    """The run-entry preamble of the real backends.

    Resolves the strategy, refuses (:class:`BackendError`) any requested
    feature ``backend`` lacks in :data:`CAPABILITIES`, and validates the
    fault plan.  Returns ``(spec, options, fault_plan)``: an empty plan
    becomes ``None``, and a plan switches the hardened protocol on.
    """
    options = options or RunOptions()
    spec = strategy if isinstance(strategy, StrategySpec) \
        else get_strategy(strategy)
    for feature in requested_features(spec, options, selector, fault_plan):
        if backend not in CAPABILITIES[feature]:
            raise BackendError(_REASONS[feature].format(
                backend=backend, mesh=_MESH.get(backend)))
    if spec.is_dlb and spec.code != "NONE" and n < 2:
        raise ValueError(
            "dynamic load balancing needs at least 2 processors")
    if fault_plan is None or fault_plan.empty:
        return spec, options, None
    fault_plan.validate_for(n)
    if not options.fault_tolerance.enabled:
        options = options.but(fault_tolerance=replace(
            options.fault_tolerance, enabled=True))
    return spec, options, fault_plan


class ExecutionBackend(ABC):
    """One way of executing the DLB protocol (see module docstring).

    ``name`` is recorded into :attr:`LoopRunStats.backend` so runs stay
    distinguishable post-hoc (CSV/JSON exports include it).
    """

    #: Stable identifier, also the CLI ``--backend`` value.
    name: str = "?"

    @abstractmethod
    def run_loop(self, loop: "LoopSpec", cluster: "ClusterSpec",
                 strategy: StrategyLike,
                 options: Optional["RunOptions"] = None,
                 selector: Optional[Callable] = None,
                 fault_plan: Optional["FaultPlan"] = None) -> "LoopRunStats":
        """Execute one load-balanced loop; return its statistics.

        Implementations must uphold the exactly-once invariant (every
        iteration executed once across all nodes) or raise; they must
        raise :class:`BackendError` for configurations they do not
        support rather than silently degrading.
        """


def get_backend(backend: Union[str, ExecutionBackend, None]
                ) -> ExecutionBackend:
    """Resolve a backend name or instance.

    Known names: ``"sim"``, ``"thread"``, ``"process"``, ``"socket"``.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None or backend == "sim":
        from .sim import SimBackend
        return SimBackend()
    if backend == "thread":
        from .thread import ThreadBackend
        return ThreadBackend()
    if backend == "process":
        from .process import ProcessBackend
        return ProcessBackend()
    if backend == "socket":
        from .socket import SocketBackend
        return SocketBackend()
    raise BackendError(f"unknown backend {backend!r} "
                       "(expected 'sim', 'thread', 'process' or 'socket')")


def join_or_terminate(participants: Iterable, *, timeout: float = 5.0,
                      terminate: Optional[Callable] = None,
                      kill: Optional[Callable] = None) -> list[str]:
    """Join every still-live participant, escalating stragglers.

    The one shutdown path shared by the real-time backends: threads
    (no ``terminate``/``kill`` — they stop at their next abort poll),
    worker processes (``terminate`` then ``kill``), and socket worker
    subprocesses.  A participant is anything with ``is_alive()`` and
    ``join(timeout)``.  Escalation per participant: optional
    ``terminate``, join, optional ``kill``, join again.  Returns the
    names of participants that survived everything — the caller decides
    whether leftovers are an error; an empty list is a clean shutdown.
    """
    stragglers: list[str] = []
    for p in participants:
        if not p.is_alive():
            continue
        if terminate is not None:
            terminate(p)
        p.join(timeout)
        if p.is_alive() and kill is not None:
            kill(p)
            p.join(timeout)
        if p.is_alive():
            stragglers.append(getattr(p, "name", None) or repr(p))
    return stragglers


def mp_context(method: Optional[str]):
    """The ``multiprocessing`` context for ``method`` (default: fork
    where the platform has it) of the process-spawning backends."""
    import multiprocessing
    if method is None:
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else methods[0]
    try:
        return multiprocessing.get_context(method)
    except ValueError as exc:
        raise BackendError(f"unknown start method {method!r}") from exc
