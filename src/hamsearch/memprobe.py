"""Resident-set-size probing via /proc, plus a low-overhead background
sampler used while benchmark phases run."""

from __future__ import annotations

import threading
import time


def read_rss_bytes(pid: int | str = "self") -> int | None:
    """Current resident set size, or None when the platform lacks /proc."""
    return _read_status_field(pid, "VmRSS:")


def _read_status_field(pid, field) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


class ResidentSampler:
    """Samples a process's resident bytes on a background thread.

    Sampling at the default 100 ms interval costs well under 1% CPU. Phase
    boundaries should call sample_now() so short windows still get edge
    readings; peak(since=t) reports the maximum over a window.
    """

    def __init__(self, pid: int | str = "self", interval: float = 0.1):
        self.pid = pid
        self.interval = interval
        self.samples: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self.available = read_rss_bytes(pid) is not None

    def sample_now(self) -> int | None:
        rss = read_rss_bytes(self.pid)
        if rss is not None:
            with self._lock:
                self.samples.append((time.monotonic(), rss))
        return rss

    def _run(self):
        while not self._stop.wait(self.interval):
            self.sample_now()

    def start(self) -> "ResidentSampler":
        if not self.available:
            return self
        self.sample_now()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> int | None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self.sample_now()
        return self.peak()

    def peak(self, since: float | None = None) -> int | None:
        with self._lock:
            readings = [r for t, r in self.samples if since is None or t >= since]
        return max(readings) if readings else None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
