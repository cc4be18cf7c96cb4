"""Spans, budgets, latency statistics and failure accounting for the benchmark.

Nothing here imports morsekit, so the self-test can check the arithmetic on
synthetic data without the program under test.
"""

from __future__ import annotations

import math
import resource
import signal
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

# Ten completed operations must lie beyond the reported tail latency.
TAIL_BEYOND = 10

# Accuracy margins are capped here: an exact match has infinitely many digits.
MARGIN_CAP = 16.0


class OverBudget(Exception):
    """A call went over its fixed per-case time or memory budget.

    ``partial`` holds what the operation computed before the refused call, so
    its output can still be checked.
    """

    def __init__(self, message: str, partial: dict | None = None):
        super().__init__(message)
        self.partial = partial


@contextmanager
def time_budget(seconds: float):
    """Raise OverBudget inside the block once ``seconds`` of wall time have passed."""

    def _expire(signum, frame):
        raise OverBudget(f"over the time budget of {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _vm_size_bytes() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize missing from /proc/self/status")


@contextmanager
def memory_budget(nbytes: int):
    """Cap this process's address space at its current size plus ``nbytes``.

    An allocation past the cap fails with MemoryError before any page is
    touched, so a call that would need several GB is refused instead of
    pushing the machine into swap or the OOM killer.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = _vm_size_bytes() + int(nbytes)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    except MemoryError as exc:
        raise OverBudget(f"over the memory budget of {nbytes / 2**20:g} MiB") from exc
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def peak_traced_bytes(call) -> int:
    """Peak memory that ``call()`` allocates, as tracemalloc sees it (numpy arrays included)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- tracing -----------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    k: int | None


class Tracer:
    """In-memory spans around the benchmark's calls into each morsekit module."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = -1
        self.k: int | None = None

    def begin_op(self, op: int, k: int | None) -> None:
        self.op, self.k = op, k

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op, self.k))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)


class NullTracer:
    """Tracing off: spans cost one shared no-op context manager."""

    enabled = False
    _null = nullcontext()

    def begin_op(self, op, k):
        pass

    def span(self, name):
        return self._null

    def count(self, name, amount=1):
        pass

    def peak(self, name, value):
        pass


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)
    ]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        totals[s.name] += own
    return dict(totals)


# -- outcomes and statistics --------------------------------------------------

OK, RAISED, WRONG, REFUSED = "ok", "raised", "wrong", "skipped: over budget"


@dataclass(frozen=True)
class Check:
    """One correctness check of an operation's output.

    Numeric checks pass when err <= tol; exact checks carry tol = None and
    pass when err == 0.
    """

    name: str
    err: float
    tol: float | None

    @property
    def passed(self) -> bool:
        if self.tol is None:
            return self.err == 0
        return bool(self.err <= self.tol)

    @property
    def margin(self) -> float | None:
        """Digits to spare: log10(tol / err), capped; None for exact checks."""
        if self.tol is None:
            return None
        if self.err == 0:
            return MARGIN_CAP
        if not math.isfinite(self.err):
            return -MARGIN_CAP
        return min(MARGIN_CAP, math.log10(self.tol / self.err))


@dataclass
class Outcome:
    op: int
    case: str
    kind: str
    latency: float
    checks: list[Check] = field(default_factory=list)
    detail: str = ""
    documented: bool = True

    @property
    def failed_checks(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def classify(outcome: Outcome) -> Outcome:
    """Turn a returned operation into ok or wrong from its checks."""
    if outcome.kind == OK and outcome.failed_checks:
        outcome.kind = WRONG
        outcome.detail = "failed checks: " + ", ".join(outcome.failed_checks)
    return outcome


def tail_latency(latencies) -> tuple[float, float] | None:
    """(value, percentile) at the highest rank with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n


@dataclass
class Tally:
    attempted: int
    failed: int
    by_kind: dict
    ok_latencies: list
    margin: float | None
    unexpected: list

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted

    @property
    def correct(self) -> bool:
        return not self.unexpected


def tally(outcomes: list[Outcome], known_wrong: set[str]) -> Tally:
    """Count every attempted operation; none is dropped.

    An operation fails when it raised, returned output that failed a check,
    or was refused for going over budget.  The run stays correct as long as
    every checked output (of a completed operation, or the part a refused one
    computed) fails only checks listed as known defects and every exception
    is one of morsekit's documented error types.
    """
    by_kind = Counter(o.kind for o in outcomes)
    margins = [c.margin for o in outcomes for c in o.checks if c.margin is not None]
    unexpected = [
        o
        for o in outcomes
        if (o.kind in (WRONG, REFUSED) and not set(o.failed_checks) <= known_wrong)
        or (o.kind == RAISED and not o.documented)
    ]
    return Tally(
        attempted=len(outcomes),
        failed=sum(n for kind, n in by_kind.items() if kind != OK),
        by_kind=dict(by_kind),
        ok_latencies=[o.latency for o in outcomes if o.kind == OK],
        margin=min(margins) if margins else None,
        unexpected=unexpected,
    )


def latency_metrics(tal: Tally, timed_seconds: float) -> dict:
    """Throughput and latency of completed operations.

    With ten or fewer completed operations there is no percentile with ten
    beyond it; the slowest completed operation stands in (percentile 100),
    and with none completed the whole timed phase does.
    """
    lat = tal.ok_latencies or [timed_seconds]
    tail = tail_latency(lat) or (max(lat), 100.0)
    return {
        "ops_per_s": len(tal.ok_latencies) / timed_seconds,
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail[0],
        "op_tail_percentile": tail[1],
        "completed": len(tal.ok_latencies),
    }


@dataclass
class Context:
    """What an operation needs besides its case: tracer, settings and scratch space."""

    tr: object
    spec: dict
    budgets: dict
    tol: dict
    work: object
    env: dict
    golden: dict = field(default_factory=dict)
    refs: dict = field(default_factory=dict)
    # crossing_report's peak bytes per key pair, measured on a small well before timing
    bytes_per_pair: float = 0.0

    def reference(self, case, compute):
        """Reference output of a case, computed once, outside any timed region."""
        if case.index not in self.refs:
            self.refs[case.index] = compute()
        return self.refs[case.index]
