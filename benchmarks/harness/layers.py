"""Per-layer self-time accounting for the traced harness run.

The table below names, for every layer of the pipeline
(generator -> prefilter bank -> ledger replay -> allocator fit -> analysis
context -> tuning stages -> shrink descent -> demand engine / screen / QPA /
block planner -> runner -> shard store), the public call-site bindings the
harness wraps.  A binding is ``(module, attribute path)``: wrapping
``repro.analysis.vdtuning.approx_accepts`` only catches calls made through
that module's name, so a function imported by name into several modules is
listed once per module that calls it.

Each wrapper keeps a self-time stack: on return it adds its elapsed time to
the caller's child total and its own elapsed-minus-children to its layer.
Self times therefore never double count, and over a region whose outermost
calls are all wrapped they sum to the region's wall time.

A binding that no longer resolves (a later refactor renamed or moved it) is
reported as absent instead of failing the run; the time it used to own
simply stays with the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import time

#: layer name -> call-site bindings, outermost layers first.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "runner": (("repro.runner.pool", "execute_units"),),
    "store.load": (("repro.runner.store", "ShardStore.load"),),
    "store.store": (("repro.runner.store", "ShardStore.store"),),
    "generator": (("repro.experiments.acceptance", "AcceptanceSweep.batch_for_bucket"),),
    "ledger": (("repro.core.batch", "partition_batch"),),
    "prefilter": (("repro.analysis.prefilter", "PrefilterBank.apply"),),
    "allocator": (
        ("repro.core.batch", "partition"),
        ("repro.core.allocator", "partition"),
    ),
    "context": (
        ("repro.analysis.context", "EDFVDContext.analyze"),
        ("repro.analysis.context", "DemandContext.analyze"),
        ("repro.analysis.context", "AMCContext.analyze"),
    ),
    "tuning": (
        ("repro.analysis.vdtuning", "run_tuning_stages"),
        ("repro.analysis.ey", "run_tuning_stages"),
        ("repro.analysis.ecdf", "run_tuning_stages"),
    ),
    "descent": (("repro.analysis.vdtuning", "tune_virtual_deadlines"),),
    "engine.lo_min_deadline": (("repro.analysis.vdtuning", "DemandEngine.lo_min_deadline"),),
    "engine.hi_check": (("repro.analysis.vdtuning", "DemandEngine.hi_check"),),
    "engine.max_lo_feasible_shrink": (
        ("repro.analysis.vdtuning", "DemandEngine.max_lo_feasible_shrink"),
    ),
    "engine.lo_feasible": (("repro.analysis.vdtuning", "DemandEngine.lo_feasible"),),
    "engine.hi_feasible": (("repro.analysis.vdtuning", "DemandEngine.hi_feasible"),),
    "screen": (
        ("repro.analysis.vdtuning", "approx_accepts"),
        ("repro.analysis.dbf", "approx_accepts"),
    ),
    "qpa": (
        ("repro.analysis.vdtuning", "qpa_violation_search"),
        ("repro.analysis.dbf", "qpa_violation_search"),
    ),
    "block": (("repro.analysis.dbf_block", "plan_block"),),
}


class SelfTimer:
    """Self-time stack shared by every wrapper of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[float] = []

    def wrap(self, layer: str, fn):
        self.self_s.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return timed

    def totals(self) -> dict[str, dict[str, float]]:
        return {
            layer: {"self_s": self.self_s[layer], "calls": self.calls[layer]}
            for layer in self.self_s
        }


def _resolve(module_name: str, path: str):
    """``(owner, attribute, current value)`` or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def install(timer: SelfTimer, layers=None) -> tuple[list[str], callable]:
    """Wrap every binding of ``layers`` (default :data:`LAYERS`).

    Returns the absent ``module:path`` bindings and an ``uninstall``
    callable restoring the originals.
    """
    absent: list[str] = []
    restore: list[tuple[object, str, object]] = []
    for layer, bindings in (layers or LAYERS).items():
        for module_name, path in bindings:
            found = _resolve(module_name, path)
            if found is None:
                absent.append(f"{module_name}:{path}")
                continue
            owner, attr, original = found
            restore.append((owner, attr, original))
            setattr(owner, attr, timer.wrap(layer, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return absent, uninstall
