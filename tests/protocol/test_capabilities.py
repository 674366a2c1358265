"""Every cell of the capability table, on every backend.

``repro.backend.base.CAPABILITIES`` says which backend runs which
feature.  An unsupported cell must be refused by ``run_loop`` with
:class:`BackendError` before anything starts; a supported cell must
pass the entry check.  docs/ARCHITECTURE.md renders the same table.
"""

from __future__ import annotations

import multiprocessing
import re
import threading
from pathlib import Path

import pytest

from repro import ClusterSpec
from repro.apps.mxm import MxmConfig, mxm_loop
from repro.backend import (
    BackendError,
    ProcessBackend,
    SimBackend,
    SocketBackend,
    ThreadBackend,
)
from repro.backend.base import CAPABILITIES, check_run, requested_features
from repro.core.strategies.registry import get_strategy
from repro.faults.plan import FaultPlan, MessageDropFault
from repro.runtime.options import FaultToleranceConfig, RunOptions

BACKENDS = {
    "sim": SimBackend,
    "thread": lambda: ThreadBackend(time_scale=0.2),
    "process": lambda: ProcessBackend(time_scale=0.2),
    "socket": lambda: SocketBackend(time_scale=0.2),
}

#: One run request per feature: (strategy, options, fault plan).
REQUESTS = {
    "work-stealing": ("WS", RunOptions(), None),
    "custom-selection": ("CUSTOM", RunOptions(), None),
    "fault-injection": ("GDDLB", RunOptions(),
                        FaultPlan.single_crash(node=1, time=0.01)),
    "non-crash-faults": ("GDDLB", RunOptions(), FaultPlan(
        drops=(MessageDropFault(probability=0.5),))),
    "fault-tolerance": ("GDDLB", RunOptions(
        fault_tolerance=FaultToleranceConfig(enabled=True)), None),
    "periodic-sync": ("GDDLB", RunOptions(sync_mode="periodic"), None),
    "staging": ("GDDLB", RunOptions(include_staging=True), None),
    "graph-topology": ("GDDLB", RunOptions(topology="ring"), None),
}

CELLS = [(backend, feature) for backend in BACKENDS for feature in REQUESTS]

ARCHITECTURE = Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md"


def _cluster():
    return ClusterSpec.homogeneous(4, max_load=3, persistence=1.0, seed=7)


def test_every_feature_has_a_request():
    assert set(REQUESTS) == set(CAPABILITIES)
    for feature, (strategy, options, plan) in REQUESTS.items():
        wanted = requested_features(get_strategy(strategy), options, None,
                                    plan)
        assert feature in wanted


@pytest.mark.parametrize("backend,feature", CELLS)
def test_capability_cell(backend, feature):
    strategy, options, plan = REQUESTS[feature]
    if backend in CAPABILITIES[feature]:
        check_run(backend, strategy, 4, options, None, plan)
        return
    loop = mxm_loop(MxmConfig(16, 8, 8), op_seconds=4e-7)
    with pytest.raises(BackendError):
        BACKENDS[backend]().run_loop(loop, _cluster(), strategy, options,
                                     fault_plan=plan)
    assert [t.name for t in threading.enumerate()
            if t.name.startswith("dlb-")] == []
    assert multiprocessing.active_children() == []


def _documented_table() -> dict[str, frozenset[str]]:
    text = ARCHITECTURE.read_text()
    section = text.split("#### Capability table", 1)[1]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    backends = header[2:]
    table = {}
    for row in rows[2:]:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        feature = re.fullmatch(r"`([a-z-]+)`", cells[0]).group(1)
        table[feature] = frozenset(
            b for b, cell in zip(backends, cells[2:]) if cell == "yes")
    assert set(backends) == set(BACKENDS)
    return table


def test_architecture_doc_holds_the_code_table():
    assert _documented_table() == CAPABILITIES
