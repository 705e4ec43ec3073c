"""Opt-in span tracing of dcea's modules, installed from outside ``src/``.

``Tracer.install()`` replaces each traced function with a wrapper wherever a
``dcea`` module binds it, so calls through module attributes
(``crypto.verify_chain`` from the verifier) and through names bound at import
time (``crypto`` calling its own ``verify``) are both caught.
``uninstall()`` puts the originals back.

A wrapper records a span only inside an op started with ``run_op``; outside
one it calls straight through. Spans live in memory as
``(name, start_ns, end_ns, parent_index, op_id)`` until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Dict, Iterable, List, Tuple

# layer (= dcea module) -> functions that get a span
TRACED: Dict[str, Tuple[str, ...]] = {
    "crypto": ("keygen", "sign", "verify", "verify_chain", "issue_cert"),
    "tpm": ("tpm_init", "create_sealed_ak", "tpm_quote", "verify_quote_signature"),
    "td": ("td_launch", "rtmr_extend", "td_report", "verify_td_report_signature"),
    "platform": ("measured_launch", "instantiate_vtpm"),
    "evidence": ("serialize", "deserialize", "check_rtmr_pcr_consistency", "replay_event_log"),
    "verifier": ("Verifier.verify", "verify_bundle"),
    "adversary": ("build_world", "attest_honest", "attest_attack"),
}

# functions too small and frequent for a span: their calls are only counted
COUNTED: Dict[str, Tuple[str, ...]] = {
    "tpm": ("pcr_extend_digest",),
}

ROOT_SPAN = "op"

LAYERS = tuple(TRACED)
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
COUNT_NAMES = tuple(f"{layer}.{fn}" for layer, fns in COUNTED.items() for fn in fns)


def _dcea_modules():
    return [m for name, m in sys.modules.items() if name == "dcea" or name.startswith("dcea.")]


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.ops = 0
        self._op = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._roots: dict = {}

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _dcea_modules()
        for table, make in ((TRACED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for layer, fns in table.items():
                module = importlib.import_module(f"dcea.{layer}")
                for fn_name in fns:
                    name = f"{layer}.{fn_name}"
                    if "." in fn_name:  # a method: patch it on its class
                        cls_name, method = fn_name.split(".")
                        cls = getattr(module, cls_name)
                        self._patch(cls, method, make(name, getattr(cls, method)))
                        continue
                    original = getattr(module, fn_name)
                    wrapper = make(name, original)
                    for mod in modules:
                        for attr in [a for a, v in vars(mod).items() if v is original]:
                            self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- ops -----------------------------------------------------------------

    def run_op(self, fn, item):
        """Run one op under a root span; every traced call inside is its child."""
        root = self._roots.get(fn)
        if root is None:
            root = self._roots[fn] = self._span_wrapper(ROOT_SPAN, fn)
        self._op = self.ops
        self.ops += 1
        try:
            return root(item)
        finally:
            self._op = None

    # -- results -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write('["op_id", "name", "start_ns", "end_ns", "parent_index"]\n')
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([op, name, start, end, parent]) + "\n")


def layer_metrics(spans: Iterable[tuple], counts: Counter, ops: int) -> Dict[str, float]:
    """Per-op figures from the spans of ``ops`` traced ops.

    ``<fn>.calls_per_op``: calls per op. ``<fn>.busy_us_per_op``: wall time
    inside the function (outermost calls only), per op.
    ``<layer>.self_us_per_op``: time in the layer's spans minus the time of
    their child spans, per op.
    """
    spans = list(spans)
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    busy: Counter = Counter()
    self_ns: Counter = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        if not _has_ancestor(spans, parent, name):
            busy[name] += end - start
        self_ns[name.split(".", 1)[0]] += end - start - child_ns[i]
    per_op = max(ops, 1)
    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls_per_op"] = calls[name] / per_op
        metrics[f"{name}.busy_us_per_op"] = busy[name] / 1e3 / per_op
    for name in COUNT_NAMES:
        metrics[f"{name}.calls_per_op"] = counts[name] / per_op
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = self_ns[layer] / 1e3 / per_op
    return metrics


def _has_ancestor(spans, index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
