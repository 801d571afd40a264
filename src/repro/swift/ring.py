"""Consistent-hashing ring, in the style of OpenStack Swift's ring.

Swift "exploits the synergy between a flat object ID space and consistent
hashing via a hash-based data structure called ring" (paper Section
III-B).  The namespace is divided into ``2 ** part_power`` partitions; an
object's partition is derived from the md5 of its ``/account/container/
object`` path; each partition is assigned to ``replica_count`` devices,
balanced by device weight and dispersed across zones.

:class:`RingBuilder` performs the assignment and supports incremental
``rebalance`` after adding/removing devices (moving as few partitions as
possible); :class:`Ring` is the immutable lookup structure servers use.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Device:
    """One disk participating in a ring."""

    id: int
    zone: int
    weight: float
    node: str
    disk: int = 0
    meta: str = ""

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"device weight must be >= 0: {self.weight}")


def hash_path(account: str, container: str = "", obj: str = "") -> int:
    """The 32-bit ring hash of a storage path (md5 of the path string)."""
    path = "/" + account
    if container:
        path += "/" + container
    if obj:
        path += "/" + obj
    digest = hashlib.md5(path.encode("utf-8")).digest()
    return struct.unpack(">I", digest[:4])[0]


class Ring:
    """Immutable partition -> replica-device lookup table."""

    def __init__(
        self,
        devices: Sequence[Device],
        replica2part2dev: Sequence[Sequence[int]],
        part_power: int,
    ):
        self.devices: Dict[int, Device] = {dev.id: dev for dev in devices}
        self._replica2part2dev = [list(row) for row in replica2part2dev]
        self.part_power = part_power
        self.part_count = 2**part_power
        self.part_shift = 32 - part_power
        self.replica_count = len(self._replica2part2dev)

    def get_part(self, account: str, container: str = "", obj: str = "") -> int:
        return hash_path(account, container, obj) >> self.part_shift

    def get_part_devices(self, part: int) -> List[Device]:
        if not 0 <= part < self.part_count:
            raise ValueError(f"partition {part} outside ring of {self.part_count}")
        return [self.devices[row[part]] for row in self._replica2part2dev]

    def get_nodes(
        self, account: str, container: str = "", obj: str = ""
    ) -> Tuple[int, List[Device]]:
        """Return ``(partition, replica devices)`` for a path."""
        part = self.get_part(account, container, obj)
        return part, self.get_part_devices(part)


class RingBuilder:
    """Builds and rebalances a :class:`Ring`.

    The assignment strategy is greedy weighted balancing with zone
    dispersion: each device has a target share proportional to its weight;
    partitions are placed replica by replica on the most-underfull device
    whose zone (then node) is not already used by that partition, when
    such a device exists.
    """

    def __init__(self, part_power: int = 10, replica_count: int = 3):
        if not 1 <= part_power <= 32:
            raise ValueError(f"part_power must be in [1, 32]: {part_power}")
        if replica_count < 1:
            raise ValueError(f"replica_count must be >= 1: {replica_count}")
        self.part_power = part_power
        self.replica_count = replica_count
        self.part_count = 2**part_power
        self.devices: Dict[int, Device] = {}
        self._next_id = 0
        self._replica2part2dev: Optional[List[List[int]]] = None

    # -- device management ---------------------------------------------------

    def add_device(
        self,
        zone: int,
        weight: float,
        node: str,
        disk: int = 0,
        meta: str = "",
    ) -> Device:
        device = Device(self._next_id, zone, weight, node, disk, meta)
        self.devices[device.id] = device
        self._next_id += 1
        return device

    def remove_device(self, device_id: int) -> None:
        if device_id not in self.devices:
            raise KeyError(f"no such device: {device_id}")
        del self.devices[device_id]

    # -- balancing -------------------------------------------------------------

    def _targets(self) -> Dict[int, float]:
        total_weight = sum(dev.weight for dev in self.devices.values())
        if total_weight <= 0:
            raise ValueError("total device weight must be positive")
        total_assignments = self.part_count * self.replica_count
        return {
            dev.id: dev.weight / total_weight * total_assignments
            for dev in self.devices.values()
        }

    def rebalance(self) -> int:
        """(Re)assign partitions; returns the number of moved assignments."""
        if not self.devices:
            raise ValueError("cannot rebalance an empty ring")
        if len(self.devices) < 1:
            raise ValueError("need at least one device")
        targets = self._targets()
        counts: Dict[int, int] = {dev_id: 0 for dev_id in self.devices}
        old_table = self._replica2part2dev
        new_table: List[List[int]] = [
            [-1] * self.part_count for _ in range(self.replica_count)
        ]
        moved = 0

        # Phase 1: keep every still-valid prior assignment that does not
        # overfill its device (minimal movement on rebalance).
        if old_table is not None:
            ceiling = {
                dev_id: int(targets[dev_id]) + 1 for dev_id in self.devices
            }
            for replica in range(min(self.replica_count, len(old_table))):
                for part in range(self.part_count):
                    dev_id = old_table[replica][part]
                    if dev_id in self.devices and counts[dev_id] < ceiling[dev_id]:
                        new_table[replica][part] = dev_id
                        counts[dev_id] += 1

        # Phase 2: fill the holes, most-underfull device first, avoiding
        # zones (then nodes) already used by the partition when possible.
        for part in range(self.part_count):
            used_zones: Set[int] = set()
            used_nodes: Set[str] = set()
            for replica in range(self.replica_count):
                dev_id = new_table[replica][part]
                if dev_id >= 0:
                    used_zones.add(self.devices[dev_id].zone)
                    used_nodes.add(self.devices[dev_id].node)
            for replica in range(self.replica_count):
                if new_table[replica][part] >= 0:
                    continue
                device = self._pick_device(
                    targets, counts, used_zones, used_nodes
                )
                new_table[replica][part] = device.id
                counts[device.id] += 1
                used_zones.add(device.zone)
                used_nodes.add(device.node)
                if old_table is not None:
                    moved += 1

        self._replica2part2dev = new_table
        return moved

    def _pick_device(
        self,
        targets: Dict[int, float],
        counts: Dict[int, int],
        used_zones: Set[int],
        used_nodes: Set[str],
    ) -> Device:
        def fullness(dev: Device) -> float:
            target = targets[dev.id]
            if target <= 0:
                return float("inf")
            return counts[dev.id] / target

        candidates = [d for d in self.devices.values() if targets[d.id] > 0]
        # Prefer: unused zone AND node > unused node > anything.
        tiers = [
            [d for d in candidates if d.zone not in used_zones],
            [d for d in candidates if d.node not in used_nodes],
            candidates,
        ]
        for tier in tiers:
            if tier:
                return min(tier, key=lambda d: (fullness(d), d.id))
        raise ValueError("no devices with positive weight")

    def get_ring(self) -> Ring:
        if self._replica2part2dev is None:
            self.rebalance()
        assert self._replica2part2dev is not None
        return Ring(
            list(self.devices.values()),
            self._replica2part2dev,
            self.part_power,
        )

    # -- diagnostics -------------------------------------------------------------

    def balance(self) -> float:
        """Max percentage deviation from target, like swift-ring-builder."""
        if self._replica2part2dev is None:
            return 0.0
        targets = self._targets()
        counts: Dict[int, int] = {dev_id: 0 for dev_id in self.devices}
        for row in self._replica2part2dev:
            for dev_id in row:
                counts[dev_id] += 1
        worst = 0.0
        for dev_id, target in targets.items():
            if target <= 0:
                continue
            deviation = abs(counts[dev_id] - target) / target * 100.0
            worst = max(worst, deviation)
        return worst
