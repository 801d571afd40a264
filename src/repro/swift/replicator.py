"""Object replicator: background repair and rebalance handoff.

Swift object servers "are also responsible for handling the replication
of objects across available disks to reach the defined data availability
threshold" (paper Section III-B).  This daemon-style pass restores the
invariant that every object lives, at its newest version, on exactly the
devices the ring assigns:

* **repair** -- replicas lost to disk wipes or failed writes are
  re-created from the newest surviving copy (etag/timestamp comparison);
* **handoff** -- after a ring rebalance (device added/removed), objects
  parked on no-longer-assigned devices are moved to the new assignment
  and removed from the old one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.swift.backend import StoredObject
from repro.swift.http import parse_path
from repro.swift.proxy import SwiftCluster


class ReplicationStalled(RuntimeError):
    """:meth:`Replicator.run_until_stable` exhausted its pass budget
    while the cluster was still changing; carries the pass reports."""

    def __init__(self, reports: List["ReplicationReport"]):
        super().__init__(
            f"replication did not converge within {len(reports)} passes "
            f"(last pass still created {reports[-1].replicas_created}, "
            f"updated {reports[-1].replicas_updated}, removed "
            f"{reports[-1].replicas_removed} replicas)"
        )
        self.reports = reports


@dataclass
class ReplicationReport:
    """What one replication pass did."""

    objects_scanned: int = 0
    replicas_created: int = 0
    replicas_updated: int = 0
    replicas_removed: int = 0
    bytes_copied: int = 0
    partitions_touched: Set[int] = field(default_factory=set)
    #: Set by :meth:`Replicator.run_until_stable` on the final report:
    #: True when the pass budget ended with a no-op pass.
    converged: bool = True

    @property
    def changed(self) -> bool:
        return bool(
            self.replicas_created
            or self.replicas_updated
            or self.replicas_removed
        )


class Replicator:
    """Scans all devices and converges replicas onto ring assignments."""

    def __init__(self, cluster: SwiftCluster):
        self.cluster = cluster

    # -- one full pass ----------------------------------------------------

    def run_once(self) -> ReplicationReport:
        """Converge every object; idempotent (a second pass is a no-op
        when nothing changed in between)."""
        report = ReplicationReport()
        ring = self.cluster.object_ring
        device_stores = self._device_stores()

        # Global view: path -> {device_id: StoredObject}.
        placements: Dict[str, Dict[int, StoredObject]] = {}
        for device_id, store in device_stores.items():
            for path, stored in store.items():
                placements.setdefault(path, {})[device_id] = stored

        for path, replicas in placements.items():
            report.objects_scanned += 1
            account, container, obj = parse_path(path)
            part, devices = ring.get_nodes(account, container, obj or "")
            report.partitions_touched.add(part)
            assigned = {device.id for device in devices}

            newest = max(replicas.values(), key=lambda s: s.timestamp)
            for device_id in assigned:
                if device_id not in device_stores:
                    continue  # device lost entirely; others still converge
                current = device_stores[device_id].get(path)
                if current is None:
                    device_stores[device_id][path] = self._clone(newest)
                    report.replicas_created += 1
                    report.bytes_copied += newest.size
                elif current.timestamp < newest.timestamp:
                    device_stores[device_id][path] = self._clone(newest)
                    report.replicas_updated += 1
                    report.bytes_copied += newest.size
            for device_id in list(replicas):
                if device_id not in assigned:
                    del device_stores[device_id][path]
                    report.replicas_removed += 1
        return report

    def run_until_stable(
        self, max_passes: int = 4, raise_on_stalled: bool = True
    ) -> List[ReplicationReport]:
        """Repeat passes until a pass changes nothing.

        When ``max_passes`` is exhausted while the cluster is *still
        changing*, the non-convergence is never silent: the call raises
        :class:`ReplicationStalled` (default), or -- with
        ``raise_on_stalled=False`` -- marks the final report
        ``converged=False`` so callers can react.
        """
        if max_passes < 1:
            raise ValueError(f"max_passes must be >= 1: {max_passes}")
        reports: List[ReplicationReport] = []
        for _pass in range(max_passes):
            report = self.run_once()
            reports.append(report)
            if not report.changed:
                return reports
        reports[-1].converged = False
        if raise_on_stalled:
            raise ReplicationStalled(reports)
        return reports

    # -- diagnostics ----------------------------------------------------------

    def audit(self) -> Dict[str, Tuple[int, int]]:
        """``{path: (assigned_replicas_found, expected_replicas)}`` for
        every object whose replicas are not exactly where the ring
        points.

        Only copies on ring-*assigned* devices count as found, so data
        parked on handoff devices (e.g. after ``fail_device`` +
        rebalance, before the replicator moved it) shows up as
        under-replication instead of being masked by the stray copies.
        Paths that only exist as strays are reported too.
        """
        ring = self.cluster.object_ring
        device_stores = self._device_stores()
        placements: Dict[str, Set[int]] = {}
        for device_id, store in device_stores.items():
            for path in store:
                placements.setdefault(path, set()).add(device_id)
        problems = {}
        for path, holders in placements.items():
            account, container, obj = parse_path(path)
            _part, devices = ring.get_nodes(account, container, obj or "")
            assigned = {device.id for device in devices}
            found = len(holders & assigned)
            strays = len(holders - assigned)
            if found != len(assigned) or strays:
                problems[path] = (found, len(assigned))
        return problems

    # -- helpers ----------------------------------------------------------------

    def _device_stores(self) -> Dict[int, Dict[str, StoredObject]]:
        """All live device stores; failed devices are excluded so the
        replicator never resurrects data onto a dead disk (nor treats
        its wiped store as a replica source)."""
        failed = getattr(self.cluster, "failed_devices", set())
        stores: Dict[int, Dict[str, StoredObject]] = {}
        for server in self.cluster.object_servers.values():
            for device_id, store in server.devices.items():
                if device_id not in failed:
                    stores[device_id] = store
        return stores

    @staticmethod
    def _clone(stored: StoredObject) -> StoredObject:
        return StoredObject(
            data=stored.data,
            etag=stored.etag,
            timestamp=stored.timestamp,
            content_type=stored.content_type,
            metadata=stored.metadata.copy(),
        )
