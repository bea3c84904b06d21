"""In-memory spans around calls into severi's layers, recorded from outside.

:meth:`Tracer.install` replaces public functions on the imported modules
and classes with timing wrappers; :meth:`Tracer.uninstall` puts every
original back, so the package source is never touched.  A name that a
later version of the package no longer has is skipped, and its layer
then reports zero.

The program is single-threaded, so spans nest strictly: a span's self
time is its duration minus the durations of its direct children.  The
self times of one command therefore sum to its root span by
construction; :meth:`Tracer.problems` checks what can go wrong instead.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

DERIVED = (
    "omega", "m_invariant", "reducible_fibre_count", "r_component_count",
    "lr", "k0", "k0_printed", "k1", "k1_via_c2", "g0",
    "g0_from_splitting_sum", "g1", "ramification_residual",
)
ENGINE_LAYERS = {
    "n0": "engine.n0",
    "n1": "engine.n1",
    "t_op": "engine.t_op",
    **{name: "engine.derived" for name in DERIVED},
    "value": "engine.dispatch",
    "evaluate": "engine.dispatch",
    "fill": "engine.dispatch",
}
# (module, attribute, layer).  The CLI calls the suite and render
# functions through its own module bindings, and run_full_audit calls
# the three suites through severi.audit's globals.
FUNCTION_TARGETS = (
    ("severi.cli", "run_full_audit", "audit.full"),
    ("severi.audit", "run_anchor_suite", "audit.anchor"),
    ("severi.audit", "run_identity_suite", "audit.identity"),
    ("severi.audit", "run_discrepancy_probes", "audit.probes"),
    ("severi.cli", "build_records", "tables.build_records"),
    ("severi.cli", "render_csv", "tables.render"),
    ("severi.cli", "render_json", "tables.render"),
)
# (module, class, method, layer)
METHOD_TARGETS = tuple(
    ("severi.engine", "InvariantEngine", name, layer)
    for name, layer in ENGINE_LAYERS.items()
) + (
    ("severi.audit", "AuditReport", "to_text", "audit.render"),
    ("severi.audit", "AuditReport", "to_json_obj", "audit.render"),
)
ROOT_LAYER = "cli.main"


class Span(NamedTuple):
    id: int
    parent: int | None
    command: int
    layer: str
    name: str
    start: float
    end: float
    self_time: float


class _JsonProxy:
    """Stands in for the ``json`` module inside severi.cli, so that the
    audit report's ``json.dumps`` is timed as audit rendering."""

    def __init__(self, module, dumps: Callable) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def _bits(value) -> int:
    numerator = getattr(value, "numerator", None)
    if numerator is None:
        return 0
    return max(numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Span recorder.  Per-command counters are kept alongside the spans:
    the largest value bit length, and the distinct T-operator arguments."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = -1
        self.value_bits = 0
        self.t_op_distinct = 0
        self.installed: set[str] = set()
        self._t_op_args: set = set()
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([span_id, 0.0])
        return span_id, parent

    def _exit(self, span_id, parent, layer, name, start, end) -> None:
        _, children = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append(
            Span(span_id, parent, self.command, layer, name, start, end, duration - children)
        )

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        engine = layer.startswith("engine.")
        t_op = layer == "engine.t_op"
        counts_bits = engine and layer != "engine.dispatch"

        def traced(*args, **kwargs):
            span_id, parent = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span_id, parent, layer, name, start, perf_counter())
            if counts_bits:
                self.value_bits = max(self.value_bits, _bits(result))
            if t_op:
                self._t_op_args.add(repr(args[1:]) + repr(sorted(kwargs.items())))
            return result

        traced.__wrapped__ = fn
        traced.__tracer__ = self
        return traced

    def run_command(self, fn: Callable, *args):
        """Call ``fn`` as the root span of a new command."""
        self.command += 1
        self._t_op_args = set()
        try:
            return self.wrap(ROOT_LAYER, fn.__name__, fn)(*args)
        finally:
            self.t_op_distinct += len(self._t_op_args)

    # -- installing the wrappers --------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        current = getattr(owner, attr)
        if getattr(current, "__tracer__", None) is not None:
            raise RuntimeError(f"{owner.__name__}.{attr} is already wrapped")
        own = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module_name, attr, layer in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                self._patch(module, attr, self.wrap(layer, attr, fn))
                self.installed.add(layer)
        for module_name, cls_name, attr, layer in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            fn = getattr(cls, attr, None)
            if callable(fn):
                self._patch(cls, attr, self.wrap(layer, f"{cls_name}.{attr}", fn))
                self.installed.add(layer)
        cli = importlib.import_module("severi.cli")
        json_module = getattr(cli, "json", None)
        if json_module is not None:
            dumps = self.wrap("audit.render", "json.dumps", json_module.dumps)
            self._patch(cli, "json", _JsonProxy(json_module, dumps))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, float], Counter, float]:
        """Self seconds and call counts per layer, and the summed duration
        of the root spans."""
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        roots = 0.0
        for span in self.spans:
            self_time[span.layer] += span.self_time
            calls[span.layer] += 1
            if span.parent is None:
                roots += span.end - span.start
        return self_time, calls, roots

    def problems(self, expected_layers) -> list[str]:
        """What is wrong with the recorded spans: a span that is not
        inside its parent or belongs to another command (a broken span
        stack), and a layer in ``expected_layers`` whose functions were
        wrapped but recorded no call (a wrapper on a binding the program
        does not call through).  A layer whose functions the package no
        longer has was not wrapped and is not reported."""
        found: list[str] = []
        by_id = {span.id: span for span in self.spans}
        for span in self.spans:
            if span.parent is None:
                continue
            parent = by_id.get(span.parent)
            if (
                parent is None
                or parent.command != span.command
                or span.start < parent.start
                or span.end > parent.end
            ):
                found.append(f"span {span.id} ({span.name}) is not inside its parent")
                break
        reached = {span.layer for span in self.spans}
        for layer in sorted(set(expected_layers) & (self.installed - reached)):
            found.append(f"layer {layer} was wrapped but recorded no call")
        return found

    def write(self, path: Path, command_keys: list[str]) -> None:
        """Write the command list, then every span as one JSON line with
        times in ms from the first span's start."""
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"commands": command_keys}) + "\n")
            for span in self.spans:
                handle.write(
                    json.dumps(
                        [
                            span.id,
                            span.parent,
                            span.command,
                            span.layer,
                            span.name,
                            round((span.start - origin) * 1e3, 6),
                            round((span.end - origin) * 1e3, 6),
                        ]
                    )
                    + "\n"
                )
