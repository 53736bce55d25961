"""Outside-in tracing of the phasestab modules.

`Tracer.install` wraps every public function defined in a layer module and
rebinds the wrapper under every name that holds the original in any
phasestab module namespace, so calls made inside the package (for example
`robustness.sym_eig`, or `random_frames.delta_op`, an alias of
`robustness.delta`) are seen too.  Nothing under `src/` is edited.

Each call records one span: name, start, end, parent span, op id and whether
it raised.  Spans are kept in flat arrays in memory and written out by
`save`.  A span's self time is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

PACKAGE = "phasestab"
LAYERS = (
    "cli",
    "injectivity",
    "robustness",
    "estimation",
    "random_frames",
    "frame_core",
    "serialize",
)

# Callables defined outside the package but called from a layer, traced under
# the layer that calls them: scipy's L-BFGS entry point inside the estimator.
FOREIGN = (("estimation", "minimize"),)

# Functions whose `mode` argument is recorded, so that exact-to-sampled
# fallbacks show up as `sampled_calls`.
MODE_ARG = ("robustness.delta", "robustness.omega")


def _package_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records spans around the public functions of the phasestab layers."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.flags = array("b")  # bit 0: raised, bit 1: sampled mode
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- installation -----------------------------------------------------

    def targets(self) -> dict[int, tuple[str, object]]:
        """id(original) -> (span name, original) for every traced callable."""
        found: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    found[id(obj)] = (f"{layer}.{attr}", obj)
        for layer, attr in FOREIGN:
            obj = getattr(sys.modules[f"{PACKAGE}.{layer}"], attr)
            found.setdefault(id(obj), (f"{layer}.{attr}", obj))
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        mode_sig = inspect.signature(fn) if name in MODE_ARG else None
        clock = time.perf_counter
        stack = self._stack
        name_id, start, end = self.name_id, self.start, self.end
        parent, op, flags = self.parent, self.op, self.flags

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            flag = 0
            if mode_sig is not None:
                bound = mode_sig.bind(*args, **kwargs)
                if bound.arguments.get("mode", "exact") == "sampled":
                    flag = 2
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            flags.append(flag)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                flags[sid] = flag | 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def summarize(self, lo: int = 0, hi: int | None = None, op_kinds: dict | None = None) -> dict:
        """Per-function calls, self time, raised and sampled counts for the
        spans with index in [lo, hi).  With `op_kinds` (op id -> kind), the
        calls are also split by the kind of op that caused them."""
        import numpy as np

        hi = self.span_count() if hi is None else hi
        # np.array copies, so the arrays stay free to grow afterwards
        names = np.array(self.name_id[lo:hi], dtype=np.int32)
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        par = np.array(self.parent[lo:hi], dtype=np.int32)
        ops = np.array(self.op[lo:hi], dtype=np.int32)
        flg = np.array(self.flags[lo:hi], dtype=np.int8)
        has_parent = par >= lo
        child_time = np.bincount(
            par[has_parent] - lo, weights=dur[has_parent], minlength=hi - lo
        )
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        raised = np.bincount(names, weights=(flg & 1), minlength=k)
        sampled = np.bincount(names, weights=(flg & 2) // 2, minlength=k)
        table = {}
        for i, name in enumerate(self.names):
            if calls[i] == 0:
                continue
            row = {
                "calls": int(calls[i]),
                "self_s": float(selfs[i]),
                "raised": int(raised[i]),
            }
            if name in MODE_ARG:
                row["sampled_calls"] = int(sampled[i])
            if op_kinds:
                mine = names == i
                by_kind: dict[str, int] = {}
                for op_id, count in zip(*np.unique(ops[mine], return_counts=True)):
                    kind = op_kinds.get(int(op_id), "none")
                    by_kind[kind] = by_kind.get(kind, 0) + int(count)
                row["calls_by_op_kind"] = by_kind
            table[name] = row
        return table

    def save(self, path) -> None:
        """Write every recorded span to a compressed .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.int32),
            flags=np.array(self.flags, dtype=np.int8),
        )
