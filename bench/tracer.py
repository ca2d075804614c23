"""In-memory span tracer installed around teleportlab's public functions.

The tracer wraps, from outside the program, every public function (and
public classmethod) defined in the six teleportlab modules plus
``numpy.linalg.svd``.  A wrapper replaces the function under every name any
``teleportlab`` module bound it to (``teleportlab.cli.build_setup`` as well
as ``teleportlab.teleport.build_setup``), so calls between modules are
traced too.  :meth:`Tracer.uninstall` puts every original back.

A span is ``(name, start, end, parent, invocation, amount)``: ``parent`` is
the index of the enclosing span or -1, ``amount`` a per-call count where one
exists (matrices in an SVD call, bytes of a rendered report).
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter
from types import ModuleType

import numpy as np

LAYERS = ("linalg", "choi", "bases", "teleport", "haar", "cli")

# Both renderers report under one name; teleportlab.linalg.svd is named
# apart from numpy.linalg.svd, which owns "linalg.svd".
_RENAMED = {"cli.render_csv": "cli.render", "cli.render_json": "cli.render",
            "linalg.svd": "linalg.svd_factors"}


def _matrix_count(args, kwargs, result) -> int:
    shape = np.shape(args[0] if args else kwargs["a"])
    return int(np.prod(shape[:-2], dtype=np.int64))


def _byte_count(args, kwargs, result) -> int:
    return len(result.encode())


_AMOUNTS = {"linalg.svd": _matrix_count, "cli.render": _byte_count}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.invocation = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        amount = _AMOUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                count = amount(args, kwargs, result) if amount and result is not None else 0
                spans[index] = (name, start, end, parent, self.invocation, count)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable wherever a teleportlab module bound it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"teleportlab.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(_RENAMED.get(name, name), obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for method, desc in list(vars(obj).items()):
                        if isinstance(desc, classmethod) and not method.startswith("_"):
                            wrapped = self._wrap(f"{layer}.{method}", desc.__func__)
                            self._patch(obj, method, classmethod(wrapped))
        for module in list(sys.modules.values()):
            if isinstance(module, ModuleType) and module.__name__.split(".")[0] == "teleportlab":
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(module, attr, wrappers[obj])
        self._patch(np.linalg, "svd", self._wrap("linalg.svd", np.linalg.svd))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def clear(self) -> None:
        self.spans.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def summarize(spans) -> dict:
    """Per-name ``{"calls", "s", "self_s", "amount"}`` totals over ``spans``."""
    table: dict = {}
    for (name, start, end, _, _, amount), own in zip(spans, self_times(spans)):
        entry = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += own
        entry["amount"] += amount
    return table


def write_spans(path: str, spans) -> None:
    """Tab-separated spans, times in integer nanoseconds from the first start."""
    origin = min((span[1] for span in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("name\tstart_ns\tend_ns\tparent\tinvocation\tamount\n")
        for name, start, end, parent, invocation, amount in spans:
            handle.write(f"{name}\t{round((start - origin) * 1e9)}\t{round((end - origin) * 1e9)}"
                         f"\t{parent}\t{invocation}\t{amount}\n")
