"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is the single source of truth for every injected
fault in a chaos run: which rules exist, in which order they are
consulted, and exactly which requests they fire on.  Replaying the same
plan against the same workload therefore reproduces the same fault
sequence bit for bit, which is what lets the chaos tests assert
byte-identical query results and exact retry budgets.

Decisions are **scope-keyed** so they survive thread interleaving: every
consultation carries a *scope* string identifying the logical request
(node, method, object path, byte range ... -- see
:mod:`repro.faults.inject`), and the fire/no-fire draw is a pure
function of ``(plan seed, rule index, scope, per-scope consult count)``
computed with a keyed BLAKE2b digest (Python's builtin ``hash`` is
salted per process and would not replay).  Two runs of the same workload
consult each scope the same number of times in the same per-scope order
no matter how the scheduler interleaves partitions, so the set of fired
faults -- and therefore the query results -- is identical at any
parallelism.  ``times`` budgets are likewise per scope: "this replica
fails once for this request", not "the first N requests anywhere fail",
because a global budget would be spent by whichever thread raced there
first.  Legacy callers that pass no scope share the ``""`` scope and
keep the old sequential semantics.

Rules are pure data (frozen dataclasses); all mutable state (consult and
fired counters, the fault log) lives in the plan behind one lock and is
rebuilt by :meth:`FaultPlan.reset`.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union


@dataclass(frozen=True)
class FlakyObjectServer:
    """An object server that answers with an error status.

    ``node=None`` matches every storage node; ``times=None`` keeps the
    rule firing forever (persistent flakiness), otherwise it disarms
    after ``times`` triggers per scope.  ``probability`` thins the rule
    with the plan's seeded per-scope draw.
    """

    node: Optional[str] = None
    method: str = "GET"
    status: int = 503
    times: Optional[int] = 1
    probability: float = 1.0


@dataclass(frozen=True)
class SlowObjectServer:
    """An object server that stalls for ``stall_seconds`` before
    answering.  The store does not actually sleep: the stall is compared
    against the request's ``X-Request-Timeout`` deadline, and a stall at
    or past the deadline surfaces as a 504 on that replica."""

    node: Optional[str] = None
    method: str = "GET"
    stall_seconds: float = 60.0
    times: Optional[int] = 1
    probability: float = 1.0


@dataclass(frozen=True)
class StorletCrash:
    """A storlet invocation that fails inside the sandbox.

    ``reason`` is the :class:`~repro.storlets.api.StorletFailure` reason
    token to report (``crash``, ``cpu-exhausted``, ...).
    """

    storlet: Optional[str] = None
    node: Optional[str] = None
    reason: str = "crash"
    times: Optional[int] = 1
    probability: float = 1.0


@dataclass(frozen=True)
class FlakyProxy:
    """A proxy that rejects a request outright (e.g. transient 503)."""

    status: int = 503
    times: Optional[int] = 1
    probability: float = 1.0


@dataclass(frozen=True)
class DeviceLoss:
    """Permanently fail the ``device_index``-th device (in sorted device
    id order) when the cluster has served ``at_request`` requests."""

    device_index: int = 0
    at_request: int = 1


FaultRule = Union[
    FlakyObjectServer, SlowObjectServer, StorletCrash, FlakyProxy, DeviceLoss
]


@dataclass(frozen=True)
class InjectedFault:
    """One fault that actually fired (the plan's audit log)."""

    sequence: int
    kind: str
    target: str
    detail: str


def _draw(seed: int, index: int, scope: str, consult: int) -> float:
    """Deterministic uniform draw in [0, 1) for one consultation.

    A pure function of its arguments: no stream state, so concurrent
    consultations of different scopes cannot perturb each other.
    """
    key = f"{seed}|{index}|{scope}|{consult}".encode("utf-8", "replace")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class FaultPlan:
    """An ordered set of fault rules plus the seeded state to apply them.

    The plan is consulted by the injection middleware/hooks at three
    points -- object-server requests, proxy requests and storlet
    invocations.  All decision points are thread-safe; see the module
    docstring for the determinism argument.
    """

    def __init__(self, seed: int = 20170417, faults: Tuple[FaultRule, ...] = ()):
        self.seed = seed
        self.faults: Tuple[FaultRule, ...] = tuple(faults)
        self.log: List[InjectedFault] = []
        # One lock for every mutable map below.  It is a *leaf* lock in
        # the system's lock hierarchy (docs/concurrency.md): nothing is
        # called while holding it, so it cannot participate in a cycle.
        self._lock = threading.RLock()
        self._consults: Dict[Tuple[int, str], int] = {}
        self._fired_counts: Dict[Tuple[int, str], int] = {}
        self._request_count = 0
        self._fired_losses: set = set()
        self.reset()

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Re-arm every rule and rewind every counter; forget the log."""
        with self._lock:
            self.log = []
            self._request_count = 0
            self._fired_losses = set()
            self._consults = {}
            self._fired_counts = {}

    # -- decision points ----------------------------------------------------

    def on_request(self) -> List[DeviceLoss]:
        """Advance the cluster-request counter; return device losses due."""
        with self._lock:
            self._request_count += 1
            due = []
            for index, rule in enumerate(self.faults):
                if not isinstance(rule, DeviceLoss):
                    continue
                if index in self._fired_losses:
                    continue
                if self._request_count >= rule.at_request:
                    self._fired_losses.add(index)
                    self._record(
                        "device-loss",
                        f"device#{rule.device_index}",
                        f"at_request={rule.at_request}",
                    )
                    due.append(rule)
            return due

    def object_fault(
        self, node: str, method: str, scope: str = ""
    ) -> Optional[Tuple[str, float]]:
        """First matching object-server fault for this request, if any.

        Returns ``("status", code)`` for an error response or
        ``("stall", seconds)`` for a slow replica.
        """
        with self._lock:
            for index, rule in enumerate(self.faults):
                if isinstance(rule, FlakyObjectServer):
                    if rule.node is not None and rule.node != node:
                        continue
                    if rule.method != method:
                        continue
                    if not self._fires(index, rule, scope):
                        continue
                    self._record(
                        "object-error", node, f"{method} -> {rule.status}"
                    )
                    return ("status", float(rule.status))
                if isinstance(rule, SlowObjectServer):
                    if rule.node is not None and rule.node != node:
                        continue
                    if rule.method != method:
                        continue
                    if not self._fires(index, rule, scope):
                        continue
                    self._record(
                        "object-stall", node, f"{method} +{rule.stall_seconds}s"
                    )
                    return ("stall", rule.stall_seconds)
            return None

    def proxy_fault(self, method: str, scope: str = "") -> Optional[int]:
        """Status of an injected proxy-level rejection, if one fires."""
        with self._lock:
            for index, rule in enumerate(self.faults):
                if not isinstance(rule, FlakyProxy):
                    continue
                if not self._fires(index, rule, scope):
                    continue
                self._record(
                    "proxy-error", "proxy", f"{method} -> {rule.status}"
                )
                return rule.status
            return None

    def storlet_fault(
        self, storlet: str, node: str, scope: str = ""
    ) -> Optional[str]:
        """Reason token of an injected storlet failure, if one fires."""
        with self._lock:
            for index, rule in enumerate(self.faults):
                if not isinstance(rule, StorletCrash):
                    continue
                if rule.storlet is not None and rule.storlet != storlet:
                    continue
                if rule.node is not None and rule.node != node:
                    continue
                if not self._fires(index, rule, scope):
                    continue
                self._record("storlet-fault", f"{storlet}@{node}", rule.reason)
                return rule.reason
            return None

    # -- observability ------------------------------------------------------

    def fingerprint(self) -> Tuple[Tuple[str, str, str], ...]:
        """Canonically *sorted* digest of every fault that fired; two
        runs of the same plan against the same workload produce equal
        fingerprints (the chaos determinism assertion).  Sorted rather
        than log-ordered because under a concurrent scheduler the same
        set of faults fires in an interleaving-dependent order."""
        with self._lock:
            return tuple(
                sorted(
                    (fault.kind, fault.target, fault.detail)
                    for fault in self.log
                )
            )

    def consult(
        self, decision: Callable, *args, **kwargs
    ) -> Tuple[Any, List[InjectedFault]]:
        """``decision(*args, **kwargs)`` -- one of this plan's decision
        points -- and the faults it fired, taken atomically."""
        with self._lock:
            mark = len(self.log)
            return decision(*args, **kwargs), self.log[mark:]

    def fired(self, kind: Optional[str] = None) -> int:
        with self._lock:
            if kind is None:
                return len(self.log)
            return sum(1 for fault in self.log if fault.kind == kind)

    # -- internals ----------------------------------------------------------

    def _fires(self, index: int, rule: FaultRule, scope: str) -> bool:
        """One scope-keyed consultation of one rule (caller holds lock)."""
        key = (index, scope)
        consult = self._consults.get(key, 0)
        self._consults[key] = consult + 1
        times = getattr(rule, "times", None)
        if times is not None and self._fired_counts.get(key, 0) >= times:
            return False
        probability = getattr(rule, "probability", 1.0)
        if probability < 1.0:
            # Draw even for armed-but-unlucky rules so the decision
            # depends only on how often this scope consulted this rule.
            if _draw(self.seed, index, scope, consult) >= probability:
                return False
        if times is not None:
            self._fired_counts[key] = self._fired_counts.get(key, 0) + 1
        return True

    def _record(self, kind: str, target: str, detail: str) -> None:
        self.log.append(
            InjectedFault(
                sequence=len(self.log),
                kind=kind,
                target=target,
                detail=detail,
            )
        )

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self.faults)}, "
            f"fired={len(self.log)})"
        )
