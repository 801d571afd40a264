"""Deterministic synthetic smart-meter data generator.

Structure mirrors the paper's datasets: 10 columns, "every row represents
a reading taken every 10 minutes" (Section VI), 10K meters spread over
European cities.  The generator is fully deterministic given a seed so
experiments and property tests are reproducible.

Columns::

    vid     meter id, e.g. M00042
    date    reading timestamp, "YYYY-MM-DD HH:MM:SS"
    index   cumulative consumption counter (kWh)
    sumHC   cumulative off-peak ("heures creuses") consumption
    sumHP   cumulative peak ("heures pleines") consumption
    code    uniform status code in [0, 10000) -- the synthetic-workload
            hook for controlled row selectivity
    city    meter city
    state   ISO-ish country code (UKR rows are rare, serving the
            ShowPiemonth ``state LIKE 'U%'`` high-selectivity query)
    lat     meter latitude
    long    meter longitude
"""

from __future__ import annotations

import datetime
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.sql.types import Row, Schema

METER_SCHEMA = Schema.of(
    "vid",
    "date",
    "index:float",
    "sumHC:float",
    "sumHP:float",
    "code:int",
    "city",
    "state",
    "lat:float",
    "long:float",
)

#: (city, state, lat, long, weight) -- weights make UKR rare so that the
#: ``state LIKE 'U%'`` query keeps its Table-I selectivity (99.99%).
CITIES: List[Tuple[str, str, float, float, int]] = [
    ("Rotterdam", "NLD", 51.92, 4.48, 12),
    ("Amsterdam", "NLD", 52.37, 4.90, 10),
    ("Paris", "FRA", 48.86, 2.35, 18),
    ("Lyon", "FRA", 45.76, 4.84, 10),
    ("Nice", "FRA", 43.70, 7.27, 8),
    ("Berlin", "DEU", 52.52, 13.40, 12),
    ("Munich", "DEU", 48.14, 11.58, 8),
    ("Barcelona", "ESP", 41.39, 2.17, 10),
    ("Madrid", "ESP", 40.42, -3.70, 10),
    ("Rome", "ITA", 41.90, 12.50, 8),
    ("Milan", "ITA", 45.46, 9.19, 8),
    ("Warsaw", "POL", 52.23, 21.01, 6),
    ("Kyiv", "UKR", 50.45, 30.52, 3),
]


@dataclass(frozen=True)
class MeterProfile:
    vid: str
    city: str
    state: str
    lat: float
    long: float
    base_load: float  # kWh per 10-minute interval, meter-specific


@dataclass
class DatasetSpec:
    """Shape of a generated dataset.

    The paper's Small/Medium/Large are 438M/3,900M/21,099M rows
    (50 GB / 500 GB / 3 TB).  Functional experiments use laptop-scale
    specs; the performance model extrapolates to the paper's sizes.
    """

    meters: int = 100
    start: str = "2015-01-01"
    intervals: int = 144  # readings per meter; 144 x 10 min = one day
    interval_minutes: int = 10  # paper: one reading every 10 minutes
    seed: int = 20170417  # ICDE'17 week, for determinism
    objects: int = 4  # CSV objects the rows are spread over

    def __post_init__(self) -> None:
        for name, least in (
            ("meters", 0),
            ("intervals", 0),
            ("objects", 1),
            ("interval_minutes", 1),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"DatasetSpec.{name} must be >= {least}, got {value}")

    def total_rows(self) -> int:
        return self.meters * self.intervals


class MeterDataGenerator:
    """Streams deterministic readings, row-major by (interval, meter)."""

    def __init__(self, spec: DatasetSpec):
        self.spec = spec
        self.INTERVAL = datetime.timedelta(minutes=spec.interval_minutes)
        self._random = random.Random(spec.seed)
        self.profiles = self._make_profiles()

    def _make_profiles(self) -> List[MeterProfile]:
        weighted: List[Tuple[str, str, float, float]] = []
        for city, state, lat, long, weight in CITIES:
            weighted.extend([(city, state, lat, long)] * weight)
        profiles = []
        for index in range(self.spec.meters):
            city, state, lat, long = weighted[
                self._random.randrange(len(weighted))
            ]
            profiles.append(
                MeterProfile(
                    vid=f"M{index:05d}",
                    city=city,
                    state=state,
                    lat=round(lat + self._random.uniform(-0.05, 0.05), 4),
                    long=round(long + self._random.uniform(-0.05, 0.05), 4),
                    base_load=self._random.uniform(0.05, 0.4),
                )
            )
        return profiles

    def _intervals(
        self,
    ) -> Iterator[Tuple[str, List[float], List[float], List[float], List[int]]]:
        """The one reading loop: per interval, its stamp and every meter's
        rounded ``index`` / ``sumHC`` / ``sumHP`` and ``code``, in meter
        order.

        A reading's consumption is ``base_load * uniform(0.5, 1.5)`` from
        ``Random(seed + 1)``, drawn meter by meter; ``uniform(0.5, 1.5)``
        is ``0.5 + 1.0 * random()``, written here without the no-op
        multiply.  ``code`` is the first four bytes of
        ``md5(f"{vid}:{interval}")`` mod 10000: each meter's ``b"<vid>:"``
        is hashed once and copied per reading.  Only one of the two
        running sums moves per interval, so the other's rounded list is
        yielded again as the same object.
        """
        start = datetime.datetime.fromisoformat(self.spec.start)
        draw = random.Random(self.spec.seed + 1).random
        loads = [profile.base_load for profile in self.profiles]
        prefixes = [
            hashlib.md5(f"{profile.vid}:".encode()) for profile in self.profiles
        ]
        from_bytes = int.from_bytes
        indexes = [0.0] * len(loads)
        sums_hc = [0.0] * len(loads)
        sums_hp = [0.0] * len(loads)
        rounded_hc = rounded_hp = [0.0] * len(loads)
        for interval in range(self.spec.intervals):
            moment = start + interval * self.INTERVAL
            stamp = moment.strftime("%Y-%m-%d %H:%M:%S")
            consumptions = [load * (0.5 + draw()) for load in loads]
            indexes = [total + used for total, used in zip(indexes, consumptions)]
            if moment.hour < 7 or moment.hour >= 22:
                sums_hc = [total + used for total, used in zip(sums_hc, consumptions)]
                rounded_hc = [round(total, 3) for total in sums_hc]
            else:
                sums_hp = [total + used for total, used in zip(sums_hp, consumptions)]
                rounded_hp = [round(total, 3) for total in sums_hp]
            suffix = str(interval).encode()
            codes = []
            for prefix in prefixes:
                digest = prefix.copy()
                digest.update(suffix)
                codes.append(from_bytes(digest.digest()[:4], "big") % 10000)
            yield (
                stamp,
                [round(total, 3) for total in indexes],
                rounded_hc,
                rounded_hp,
                codes,
            )

    def rows(self) -> Iterator[Row]:
        """Typed rows in reading order."""
        for stamp, indexes, sums_hc, sums_hp, codes in self._intervals():
            yield from [
                (
                    profile.vid,
                    stamp,
                    index,
                    hc,
                    hp,
                    code,
                    profile.city,
                    profile.state,
                    profile.lat,
                    profile.long,
                )
                for profile, index, hc, hp, code in zip(
                    self.profiles, indexes, sums_hc, sums_hp, codes
                )
            ]

    def csv_lines(self) -> Iterator[bytes]:
        """Rows rendered as CSV lines (no header), newline-terminated.

        Each line is its row's cells as ``METER_SCHEMA`` renders them
        (floats as ``repr``, the rest as ``str``), comma-separated.  The
        meter's own columns are rendered once per meter.
        """
        heads = [f"{profile.vid}," for profile in self.profiles]
        tails = [
            f",{profile.city},{profile.state},{profile.lat!r},{profile.long!r}\n"
            for profile in self.profiles
        ]
        for stamp, indexes, sums_hc, sums_hp, codes in self._intervals():
            yield from [
                f"{head}{stamp},{index!r},{hc!r},{hp!r},{code}{tail}".encode()
                for head, index, hc, hp, code, tail in zip(
                    heads, indexes, sums_hc, sums_hp, codes, tails
                )
            ]

    def csv_objects(self) -> Iterator[Tuple[str, bytes]]:
        """``(object_name, data)`` pairs splitting the dataset evenly."""
        total = self.spec.total_rows()
        per_object = max(1, (total + self.spec.objects - 1) // self.spec.objects)
        lines = self.csv_lines()
        for object_index in range((total + per_object - 1) // per_object):
            yield f"meter-{object_index:04d}.csv", b"".join(
                itertools.islice(lines, per_object)
            )


def upload_dataset(client, container: str, spec: DatasetSpec) -> Dict[str, int]:
    """Generate and PUT a dataset; returns {object_name: size}."""
    client.put_container(container)
    sizes: Dict[str, int] = {}
    for name, data in MeterDataGenerator(spec).csv_objects():
        client.put_object(container, name, data)
        sizes[name] = len(data)
    return sizes
