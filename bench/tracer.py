"""Spans and counters recorded at the boundaries of polphase's public functions.

The tracer wraps each listed function at every module namespace that binds it
(``polarimetry.compose`` is the same object as ``plates.compose`` after
``from .plates import compose``), so calls made inside the package are seen
as well as the benchmark's own.  A span is (name, start_ns, end_ns,
parent_index, op_id, error_type); spans stay in memory until ``write``.
Counters record work at the same boundaries (bytes, scan points, region
outcomes).  Only ops whose id is below ``census`` feed the per-layer numbers,
so those numbers are exact for a given seed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

#: public functions timed per layer, by module
WRAPPED = {
    "su2": ("from_yzy", "to_zyz", "yzy_to_zyz"),
    "plates": ("compose", "decompose_qhq", "parse_plate_array"),
    "polarimetry": ("scan_plate_array", "measure_phase", "sweep_extrema"),
    "interferometer": ("split_beam_shift",),
    "fringes": (
        "load_interferogram", "retrieve_phase", "column_average", "savitzky_golay",
        "savgol_coefficients", "estimate_carrier", "shift_by_minima", "generate",
        "save_interferogram",
    ),
}

#: fringe failure types reported by name; anything else lands in "other"
FRINGE_FAILURES = ("NoCarrier", "TooFewMinima", "AmbiguousPairing")


def _file_bytes(path) -> int:
    total = 0
    for p in (str(path), f"{path}.meta"):
        if os.path.exists(p):
            total += os.path.getsize(p)
    return total


class NullTracer:
    """Stand-in used for untraced runs: every hook is a no-op."""

    def begin_op(self, op_id: int) -> None:
        pass

    def end_op(self) -> None:
        pass

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, key: str, n: float = 1) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self, census: int):
        self.census = census
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1
        self._raised: list[BaseException] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        import polphase

        originals = {}
        for module_name, names in WRAPPED.items():
            module = getattr(polphase, module_name)
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = self._wrap(f"{module_name}.{name}", fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "polphase" or module_name.startswith("polphase.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        post = _POST_HOOKS.get(name)
        is_fringes = name.startswith("fringes.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                if is_fringes:
                    self._fringe_failure(exc)
                if name == "fringes.retrieve_phase":
                    _regions(self, args, kwargs, None)
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op, error)
            if post is not None and self._op < self.census:
                post(self, args, kwargs, result)
            return result

        return traced

    # -- recording ----------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._raised.clear()

    def end_op(self) -> None:
        self._raised.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent, self._op, None)

    def count(self, key: str, n: float = 1) -> None:
        if self._op < self.census:
            self.counters[key] = self.counters.get(key, 0) + n

    def _fringe_failure(self, exc: BaseException) -> None:
        # an exception re-raised by an outer wrapped function is one failure
        if any(exc is seen for seen in self._raised):
            return
        self._raised.append(exc)
        kind = type(exc).__name__
        self.count(f"fringes.failures.{kind if kind in FRINGE_FAILURES else 'other'}")

    # -- results --------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-op calls, busy and self time of every span name over the census ops."""
        calls: dict[str, int] = {}
        busy: dict[str, int] = {}
        child: dict[int, int] = {}
        layer_busy: dict[str, int] = {}
        census = [(i, s) for i, s in enumerate(self.spans) if s is not None and s[4] < self.census]
        for _, (name, start, end, parent, _, _) in census:
            if parent >= 0:
                child[parent] = child.get(parent, 0) + end - start
        self_ns: dict[str, int] = {}
        for i, (name, start, end, parent, _, _) in census:
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0) + duration
            self_ns[name] = self_ns.get(name, 0) + duration - child.get(i, 0)
            layer = name.split(".")[0]
            parent_layer = self.spans[parent][0].split(".")[0] if parent >= 0 else None
            if parent_layer != layer:  # outermost span of its layer: union of the layer's time
                layer_busy[layer] = layer_busy.get(layer, 0) + duration
        ops = max(1, self.census)
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.busy_ms"] = busy[name] / ops / 1e6
            out[f"{name}.self_ms"] = self_ns[name] / ops / 1e6
        for layer, ns in layer_busy.items():
            out[f"{layer}.busy_ms"] = ns / ops / 1e6
        for key, value in self.counters.items():
            out[key] = value / ops
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op, error = span
                fh.write(json.dumps({"i": index, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "error": error}) + "\n")


def _regions(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        ok = len(result.region_estimates)
        attempted = ok + result.failed_regions
    else:
        from polphase import fringes

        regions = kwargs.get("regions", args[1] if len(args) > 1 else None)
        img = kwargs.get("img", args[0] if args else None)
        attempted = len(regions) if regions is not None else len(fringes.default_regions(img))
        ok = 0
    tracer.count("fringes.regions_attempted", attempted)
    tracer.count("fringes.regions_ok", ok)


_POST_HOOKS = {
    "fringes.retrieve_phase": _regions,
    "fringes.load_interferogram": lambda t, a, k, r: t.count("fringes.bytes_read", _file_bytes(a[0] if a else k["path"])),
    "fringes.save_interferogram": lambda t, a, k, r: t.count("fringes.bytes_written", _file_bytes(a[1] if len(a) > 1 else k["path"])),
    "polarimetry.scan_plate_array": lambda t, a, k, r: t.count("polarimetry.scan_points", len(r)),
}
