"""Measurement helpers: percentiles, the host-calibrated lap clock, the
correctness ledger, run metadata."""
from __future__ import annotations

import bisect
import hashlib
import os
import platform
import resource
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)
#: A tail percentile must have at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with >= TAIL_MIN_BEYOND of n samples beyond it.

    Falls back to the median when even p50 has fewer samples beyond it; the
    output states the percentile and the count either way.
    """
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def summarize(samples: list[float], scale: float = 1.0) -> dict:
    """Median, mean and tail of a list of durations, multiplied by ``scale``."""
    x = np.asarray(samples, dtype=float) * scale
    p = tail_percentile(len(x))
    return {
        "n": int(len(x)),
        "p50": float(np.median(x)),
        "mean": float(x.mean()),
        "tail_p": p,
        "tail": float(np.percentile(x, p)),
        "tail_beyond": int(np.floor(len(x) * (1.0 - p / 100.0))),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Items the pure-Python and the numpy part of the host probe each handle;
#: one probe run takes about 0.6 ms, half in each part.
PROBE_ITEMS = 600
PROBE_ARRAY = 4000
#: Probe runs per probe; the fastest one counts, so an interrupt is not read
#: as a slow host.
PROBE_REPEATS = 3
#: Probe time that scales a lap by 1.0: a round figure near the probe's time
#: on a quiet minute of the 4-core host the baseline in NOTES.md comes from.
PROBE_REF_S = 0.55e-3
_PROBE_FLOATS = [((i * 7919) % 1009) / 1009 for i in range(PROBE_ITEMS)]
_probe_rng = np.random.default_rng(0)
_PROBE_KEYS = _probe_rng.random(PROBE_ARRAY)
_PROBE_IDS = _probe_rng.integers(0, PROBE_ARRAY // 4, PROBE_ARRAY)


def _probe_work() -> int:
    """Fixed work of the kinds the program does, independent of it: tuple
    hashing and set membership, dicts of lists and a sort in Python, and a
    stable argsort and a unique in numpy. A host's load slows pure-Python
    loops more than numpy kernels, and the program's layers, which run both,
    fall in between: over 4-second blocks of one process, layer times divided
    by this probe varied by 0.07–0.14 (IQR/median) against 0.14–0.32 raw,
    closer than divided by either part alone."""
    seen = set()
    acc = 0
    for i in range(PROBE_ITEMS):
        e = (i % 251, i % 241)
        if e not in seen:
            seen.add(e)
        acc += i & 7
    groups: dict[int, list[float]] = {}
    for i, x in enumerate(_PROBE_FLOATS):
        groups.setdefault(i % 97, []).append(x)
    np.argsort(_PROBE_KEYS, kind="stable")
    return acc + len(seen) + len(groups) + len(sorted(_PROBE_FLOATS)) + len(np.unique(_PROBE_IDS))


def probe_s() -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


class HostClock:
    """Times work in laps and scales each lap to a reference host speed.

    On a shared host the speed of pure-Python code drifts by up to 2x over
    seconds to minutes, as other tenants load the machine; CPU time drifts
    with wall time, so it is not the scheduler. While the clock runs (``with
    HostClock() as clock``), a timer signal runs a fixed probe every
    ``INTERVAL_S`` in the main thread, also in the middle of a long call into
    the program or while it waits on Spark; the probe's time is taken out of
    the lap it fell in. The host's speed during a lap is the median of the
    probes from ``WINDOW_S`` before the lap to ``WINDOW_S`` after it (one
    probe jitters more than the host drifts in a few seconds), and the lap's
    calibrated time is its raw time times ``PROBE_REF_S`` over that median:
    the time it would have taken at the reference speed. Read it once the
    run's probes are all taken.

    ``start()`` opens a lap; each ``lap()`` closes it, returns it and opens
    the next one.
    """

    INTERVAL_S = 0.1
    WINDOW_S = 2.0

    def __init__(self) -> None:
        self._at: list[float] = []
        self.probes: list[float] = []
        self._spent = 0.0  # seconds spent in probes so far

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe_s())
        self._at.append(t0)
        self._spent += time.perf_counter() - t0

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _now(self) -> tuple[float, float]:
        """(time, probe time so far), read with no probe in between."""
        while True:
            spent = self._spent
            t = time.perf_counter()
            if spent == self._spent:
                return t, spent

    def start(self) -> None:
        self._t, self._s = self._now()

    def lap(self) -> "Lap":
        t, spent = self._now()
        lap = Lap(self, self._t, t, (t - self._t) - (spent - self._s))
        self._t, self._s = t, spent
        return lap

    def speed(self, t0: float, t1: float) -> float:
        """Median probe time from ``WINDOW_S`` before t0 to ``WINDOW_S`` after t1."""
        i = bisect.bisect_left(self._at, t0 - self.WINDOW_S)
        j = bisect.bisect_right(self._at, t1 + self.WINDOW_S)
        return float(np.median(self.probes[i:j])) if j > i else PROBE_REF_S

    def slowdown(self) -> float:
        """Median probe over the reference: > 1 when the host ran slow."""
        return float(np.median(self.probes)) / PROBE_REF_S if self.probes else 1.0


@dataclass(frozen=True)
class Lap:
    clock: HostClock
    t0: float
    t1: float
    raw: float  # t1 - t0 less the probes that fell in the lap

    @property
    def cal(self) -> float:
        return self.raw * PROBE_REF_S / self.clock.speed(self.t0, self.t1)


def lap_times(op: Lap | list[Lap]) -> tuple[float, float]:
    """(raw_s, calibrated_s) of a lap, or of an operation timed as several
    laps (their sums)."""
    parts = op if isinstance(op, list) else [op]
    return sum(p.raw for p in parts), sum(p.cal for p in parts)


class Ledger:
    """Counts operations attempted and operations whose answer was wrong.

    Every timed operation is registered with :meth:`op`; checks made outside
    the timed windows mark an operation failed with :meth:`check`. With
    ``inject_wrong`` set, the first comparison made through :meth:`same` is
    fed a corrupted answer — the self-check uses it to show that a wrong
    answer reaches ``error_rate``.
    """

    def __init__(self, inject_wrong: bool = False):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.checks = 0
        self._inject = inject_wrong

    def op(self) -> int:
        self.attempted += 1
        return self.attempted

    def check(self, op: int, label: str, ok: bool) -> bool:
        self.checks += 1
        if not ok:
            self.failed_ops.add(op)
            if len(self.failures) < 20:
                self.failures.append(f"op {op}: {label}")
        return ok

    def same(self, op: int, label: str, got, want) -> bool:
        if self._inject:
            self._inject = False
            got = set(got)
            got.add((-1, -1))  # an edge no generator emits
        return self.check(op, label, got == want)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def metadata(root: Path) -> dict:
    """Run stamp: commit, host size, source size, library versions."""
    import numpy
    import pandas
    import pyspark

    src = root / "src"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(src)).encode() + b"\0" + data)
        loc += data.count(b"\n")
    sha = None
    if (root / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        sha = out.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "src_files": len(files),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyspark": pyspark.__version__,
    }
