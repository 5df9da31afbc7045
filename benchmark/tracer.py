"""Per-layer tracing by wrapping the program's public functions from outside.

The program's source is not changed: `Tracer.install` replaces each target
function wherever a loaded `hamsearch` module binds it, and `uninstall`
puts the originals back. Each call records its wall time, the time spent
in wrapped callees on the same thread (so a layer's self time is its time
minus that), and an item count taken from its arguments or result.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass


def _rows(args, result):
    return args[0].shape[0]


def _length(args, result):
    return len(result)


def _decoded(args, result):
    return result[0].size


# key -> (module, attribute, item count or None)
TARGETS = {
    "core.hamming_distances": ("hamsearch.core", "hamming_distances", _rows),
    "core.dataset_read": ("hamsearch.core", "dataset_read", None),
    "flat.flat_build": ("hamsearch.flat", "flat_build", None),
    "flat.flat_range_search": ("hamsearch.flat", "flat_range_search", None),
    "subcode.subcode_build": ("hamsearch.subcode", "subcode_build", None),
    "subcode.subcode_open": ("hamsearch.subcode", "subcode_open", None),
    "subcode.candidate_filter": ("hamsearch.subcode", "candidate_filter", _length),
    "subcode.verify": ("hamsearch.subcode", "verify", _length),
    # the bypass scan that subcode_range_search runs when s - r <= 0
    "subcode.scan_shard": ("hamsearch.subcode", "_scan_shard", None),
    "varint.encode": ("hamsearch.varint", "encode", None),
    "varint.decode_with_ends": ("hamsearch.varint", "decode_with_ends", _decoded),
    # only the sub-code backend calls os.pread in a benchmark process
    "io.pread": ("os", "pread", _length),
}


@dataclass
class CallStats:
    calls: int = 0
    ns: int = 0
    child_ns: int = 0  # time in wrapped callees on the same thread
    items: int = 0

    @property
    def ms(self) -> float:
        return self.ns / 1e6

    @property
    def self_ms(self) -> float:
        return (self.ns - self.child_ns) / 1e6


class Tracer:
    """Counts calls, time and items per target while installed.

    Targets whose module or attribute does not exist are skipped and listed
    in `missing`; their statistics stay at zero.
    """

    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.stats = {key: CallStats() for key in self.targets}

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for key, (module_name, attr, count) in self.targets.items():
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(key)
                continue
            wrapper = self._wrap(key, original, count)
            for holder in [module, *_program_modules()]:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, name, original))
                        setattr(holder, name, wrapper)
        return self

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, key, fn, count):
        local = self._local
        lock = self._lock

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            frame = [0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
            items = count(args, result) if count is not None else 0
            with lock:
                stat = self.stats[key]
                stat.calls += 1
                stat.ns += elapsed
                stat.child_ns += frame[0]
                stat.items += items
            return result

        traced.__wrapped__ = fn
        return traced


def _program_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "hamsearch" or name.startswith("hamsearch."))
    ]
