"""Spans around the package's public functions and methods.

The tracer is installed from the benchmark's own files; the package under
test carries no tracing code. Installing replaces every public function
and every public method of a public class defined in one of the layer
modules by a wrapper that records a span: name, start, end, parent span and
op id. The same function bound elsewhere -- a name imported with
``from ... import ...`` into any package module, or a value in a
module-level table such as ``documents.RENDERERS`` -- is patched too, so
every call path is seen. Spans stay in memory, in flat arrays, until the
run ends and dumps them.

While installed, the tracer also counts the bytes that pass through the
process's TCP sockets, per op, at the socket calls themselves.
"""
from __future__ import annotations

import array
import functools
import importlib
import inspect
import socket
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "swapcomm"
LAYERS = ("quantum", "swap", "protocol", "channel", "documents", "adversary", "verify", "cli")


def _public_callables(module):
    """(owner, attribute, span name, raw attribute value) for each public
    function and public method defined in `module`."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for method, raw in list(vars(obj).items()):
                if method.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                    yield obj, method, f"{layer}.{obj.__name__}.{method}", raw
        elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield module, attr, f"{layer}.{attr}", obj


class Tracer:
    """Records spans while installed; `op_id` tags the op they belong to."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("I")
        self.op_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, object, object]] = []
        self.errors: list[BaseException] = []
        self._channel_error = None
        self.wire: dict[int, dict[str, int]] = {}  # op id -> bytes sent and received

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        layers = []
        for layer in LAYERS:
            try:
                layers.append(importlib.import_module(f"{PACKAGE}.{layer}"))
            except ModuleNotFoundError:
                pass  # a layer gone at this commit: its metrics are absent
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        channel = sys.modules.get(f"{PACKAGE}.channel")
        self._channel_error = getattr(channel, "ChannelError", None)
        for module in layers:
            for owner, attr, name, raw in _public_callables(module):
                if inspect.isclass(owner):
                    self._patch_method(owner, attr, name, raw)
                else:
                    self._patch_function(modules, raw, name)
        self._patch_sockets()

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _patch_method(self, cls, attr, name, raw) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name))
        else:
            wrapped = self._wrap(raw, name)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, modules, fn, name) -> None:
        wrapped = self._wrap(fn, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapped)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        if entry is fn:
                            self._patches.append((value, key, fn))
                            value[key] = wrapped

    def _patch_sockets(self) -> None:
        """Count the bytes each socket call carries. sendall returns None,
        so its count is the size of its data; the others return theirs."""
        tracer = self

        def counting(method, direction):
            original = getattr(socket.socket, method)

            @functools.wraps(original)
            def counted(sock, data, *args, **kwargs):
                result = original(sock, data, *args, **kwargs)
                n = memoryview(data).nbytes if method == "sendall" else (
                    len(result) if method == "recv" else result)
                tally = tracer.wire.setdefault(tracer.op_id, {"sent": 0, "received": 0})
                tally[direction] += n
                return result

            self._patches.append((socket.socket, method, original))
            setattr(socket.socket, method, counted)

        for method, direction in (("send", "sent"), ("sendall", "sent"),
                                  ("recv", "received"), ("recv_into", "received")):
            counting(method, direction)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack, clock, tracer = self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_error(exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _note_error(self, exc: BaseException) -> None:
        # One exception crosses many wrapped frames; count it once.
        if self._channel_error and isinstance(exc, self._channel_error) \
                and not any(seen is exc for seen in self.errors):
            self.errors.append(exc)

    # -- results -------------------------------------------------------

    def has(self, name: str) -> bool:
        return name in self._ids

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.uint16),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.uint32),
        )


class TraceSummary:
    """Per-name calls, span time and self time over a set of ops.

    A span's self time is its duration minus the durations of its direct
    children. Per-op figures are means over the selected ops, which are
    whole rounds of the workload.
    """

    def __init__(self, tracer: Tracer, ops: list[int]):
        self.tracer = tracer
        self.n_ops = len(ops)
        name = np.frombuffer(tracer.name, np.uint16).astype(np.int64)
        dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        parent = np.frombuffer(tracer.parent, np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self._first = {}
        for nid in range(len(tracer.names)):
            hits = np.flatnonzero(name == nid)
            if hits.size:
                self._first[nid] = float(dur[hits[0]])
        keep = np.isin(np.frombuffer(tracer.op, np.uint32), ops)
        self._name, self._self = name[keep], (dur - child)[keep]
        n_names = len(tracer.names)
        self._calls = np.bincount(self._name, minlength=n_names)
        self._time = np.bincount(self._name, weights=dur[keep], minlength=n_names)
        self._selftime = np.bincount(self._name, weights=self._self, minlength=n_names)

    def _cols(self, names) -> list[int]:
        return [self.tracer._ids[n] for n in names if n in self.tracer._ids]

    def calls(self, name: str) -> float:
        return float(self._calls[self._cols([name])].sum() / self.n_ops)

    def seconds(self, name: str) -> float:
        return float(self._time[self._cols([name])].sum() / self.n_ops)

    def self_seconds(self, *names: str) -> float:
        return float(self._selftime[self._cols(names)].sum() / self.n_ops)

    def layer_self_seconds(self, layer: str) -> float:
        return self.self_seconds(*(n for n in self.tracer.names if n.startswith(layer + ".")))

    def us_per_call(self, name: str) -> float:
        cols = self._cols([name])
        calls = self._calls[cols].sum()
        return float(self._time[cols].sum() / calls * 1e6) if calls else 0.0

    def self_us_quantile(self, name: str, q: float) -> float:
        """Quantile of one span's self time over its calls, in microseconds."""
        mine = self._self[self._name == self.tracer._ids[name]]
        return float(np.quantile(mine, q) * 1e6) if mine.size else 0.0

    def first_seconds(self, name: str) -> float:
        """Duration of the first call in the whole run, warm-up included."""
        return self._first.get(self.tracer._ids[name], 0.0)
