"""Shared conservative statistics refutation (stripes AND whole objects).

Both pruning tiers -- stripe pruning inside one RCF1 object
(:mod:`repro.columnar.pruning`) and the object-level data-skipping
catalog (:mod:`repro.catalog`) -- answer the same question from the same
kind of evidence: *could any row behind these min/max/null-count (and
optionally bloom) statistics satisfy this filter tree?*  This module is
the single source of that answer, so the soundness argument is made
once:

* The analysis may answer ``True`` for a stripe/object with no matching
  rows, but never ``False`` for one that has them (the same direction of
  conservatism as filter evaluation itself, where NULL never matches).
* Bounds are only trusted when they are **present, finite and
  complete**: a segment that contained NaN or +/-Inf values excludes
  them from min/max and raises :attr:`ColumnStats.has_nan` instead, and
  any filter over such a column answers ``True`` -- Python's order-
  dependent ``min``/``max`` under NaN (and JSON's non-standard
  ``NaN``/``Infinity`` literals) poisoned stats in exactly the way that
  silently dropped matching stripes.
* Stale statistics written by older encoders may still carry non-finite
  bounds; they are detected here and degrade to ``True`` rather than
  refute.

The :class:`BloomFilter` used by the object catalog for equality/IN
refutation also lives here so its canonical value keying (which must
agree between the build side and the probe side) is single-sourced.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.sql.filters import (
    And,
    EqualTo,
    Filter,
    GreaterThan,
    GreaterThanOrEqual,
    In,
    IsNotNull,
    IsNull,
    LessThan,
    LessThanOrEqual,
    LikePattern,
    Not,
    Or,
    StringStartsWith,
)
from repro.sql.types import DataType

#: Default bloom sizing: 1024 bits / 4 hashes keeps the false-positive
#: rate under ~2.5% up to ~100 distinct values, and a saturated bloom is
#: merely useless (all-maybe), never unsound.
DEFAULT_BLOOM_BITS = 1024
DEFAULT_BLOOM_HASHES = 4


def is_non_finite(value: Any) -> bool:
    """Whether ``value`` is a float NaN or +/-Inf (bounds poison)."""
    return isinstance(value, float) and not math.isfinite(value)


def column_bounds(
    non_null: Sequence[Any], dtype: DataType
) -> Tuple[Any, Any, bool]:
    """``(min, max, has_nan)`` over the finite members of one
    schema-typed column's non-null run.

    ``has_nan`` reports that at least one non-finite float was excluded,
    in which case the returned bounds are *incomplete* and any bounds-
    based refutation over them must be suppressed (non-finite values can
    still satisfy range filters: ``Inf > x`` is True).  All-non-finite
    input yields ``(None, None, True)``.

    Only a FLOAT column can hold non-finite values and a finite sum
    proves it holds none; builtin ``min`` / ``max`` then give what the
    loop gives, first among equals included (``-0.0`` vs ``0.0``).
    """
    if not non_null:
        return None, None, False
    if dtype is not DataType.FLOAT or math.isfinite(sum(non_null)):
        return min(non_null), max(non_null), False
    lo: Any = None
    hi: Any = None
    has_nan = False
    for value in non_null:
        if is_non_finite(value):
            has_nan = True
        elif lo is None:
            lo = hi = value
        else:
            if value < lo:
                lo = value
            if value > hi:
                hi = value
    return lo, hi, has_nan


def canonical_bloom_key(value: Any) -> Optional[bytes]:
    """The canonical hash key of one value, or ``None`` if unkeyable.

    The contract that makes bloom refutation sound: whenever two values
    compare equal under Python ``==`` (the semantics of ``EqualTo`` and
    ``IN``), they produce the same key.  Numbers (bool included --
    ``True == 1``) therefore key through their float image, strings
    through UTF-8; non-finite floats and foreign types are unkeyable and
    must be treated as "maybe present" by the probe (and disable the
    bloom entirely on the build side).
    """
    if value is None:
        return None
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, (bool, int, float)):
        try:
            image = float(value) + 0.0  # -0.0 == 0.0, so one image for both
        except OverflowError:
            # An integer too large for float cannot equal any finite
            # float, so the decimal string is a sound key on both sides.
            return b"i" + str(value).encode("ascii")
        if not math.isfinite(image):
            return None
        return b"n" + repr(image).encode("ascii")
    return None


class BloomFilter:
    """A tiny fixed-size bloom filter over canonical value keys.

    Deterministic (blake2b-based) so build and probe agree across
    processes; serialized as hex for transport inside catalog metadata.
    """

    def __init__(
        self,
        bits: int = DEFAULT_BLOOM_BITS,
        hashes: int = DEFAULT_BLOOM_HASHES,
        payload: int = 0,
    ):
        """Create a filter of ``bits`` positions probed ``hashes`` times."""
        if bits <= 0 or hashes <= 0:
            raise ValueError("bloom bits and hashes must be positive")
        self.bits = bits
        self.hashes = hashes
        self._payload = payload

    def _positions(self, key: bytes) -> List[int]:
        positions = []
        for index in range(self.hashes):
            digest = hashlib.blake2b(
                bytes([index]) + key, digest_size=8
            ).digest()
            positions.append(int.from_bytes(digest, "big") % self.bits)
        return positions

    def add_key(self, key: bytes) -> None:
        """Insert one canonical key."""
        for position in self._positions(key):
            self._payload |= 1 << position

    def may_contain(self, value: Any) -> bool:
        """Whether ``value`` could be present (``False`` is definitive)."""
        key = canonical_bloom_key(value)
        if key is None:
            return True
        return all(
            (self._payload >> position) & 1
            for position in self._positions(key)
        )

    def to_hex(self) -> str:
        """Serialize the bit payload as fixed-width hex."""
        width = (self.bits + 3) // 4
        return format(self._payload, f"0{width}x")

    @classmethod
    def from_hex(
        cls,
        text: str,
        bits: int = DEFAULT_BLOOM_BITS,
        hashes: int = DEFAULT_BLOOM_HASHES,
    ) -> "BloomFilter":
        """Rebuild a filter from :meth:`to_hex` output."""
        return cls(bits=bits, hashes=hashes, payload=int(text, 16))


@dataclass(frozen=True)
class ColumnStats:
    """Evidence about one column of one stripe or one whole object."""

    #: Total rows covered (stripe rows or object rows).
    rows: int
    nulls: int = 0
    min_value: Any = None
    max_value: Any = None
    #: True when non-finite floats were excluded from the bounds -- the
    #: bounds are then incomplete and refute nothing.
    has_nan: bool = False
    #: Optional equality evidence (object catalog only).
    bloom: Optional[BloomFilter] = None


def column_stats(values: Sequence[Any], dtype: DataType) -> ColumnStats:
    """The statistics of one schema-typed column vector (no bloom)."""
    nulls = values.count(None)
    non_null = [v for v in values if v is not None] if nulls else values
    lo, hi, has_nan = column_bounds(non_null, dtype)
    return ColumnStats(len(values), nulls, lo, hi, has_nan)


#: Resolves a filter attribute to its stats; ``None`` = no evidence.
StatsResolver = Callable[[str], Optional[ColumnStats]]


def _prefix_refutes(lo: Any, hi: Any, prefix: str) -> bool:
    """Whether string bounds prove no value starts with ``prefix``."""
    if not isinstance(lo, str) or not isinstance(hi, str):
        return False
    # Matching values sort within [prefix, prefix + <anything>]: every
    # match m satisfies m >= prefix and m[:len(prefix)] == prefix.
    return hi < prefix or lo[: len(prefix)] > prefix


def _usable_bounds(stats: ColumnStats) -> bool:
    """Whether min/max are present, finite and complete enough to trust."""
    if stats.has_nan:
        return False
    if stats.min_value is None or stats.max_value is None:
        return False
    if is_non_finite(stats.min_value) or is_non_finite(stats.max_value):
        return False  # stale stats from a pre-fix encoder prove nothing
    return True


def filter_may_match(item: Filter, resolve: StatsResolver) -> bool:
    """Whether any row behind the resolved stats could satisfy ``item``."""
    if isinstance(item, And):
        return filter_may_match(item.left, resolve) and filter_may_match(
            item.right, resolve
        )
    if isinstance(item, Or):
        return filter_may_match(item.left, resolve) or filter_may_match(
            item.right, resolve
        )
    if isinstance(item, Not):
        return True  # stats cannot refute a negation conservatively
    if not hasattr(item, "attribute"):
        return True
    stats = resolve(item.attribute)  # type: ignore[attr-defined]
    if stats is None:
        return True
    if isinstance(item, IsNull):
        return stats.nulls > 0
    # Every other attribute filter rejects NULL, so an all-NULL column
    # cannot match (this also covers the min/max-are-None case below).
    if stats.nulls >= stats.rows:
        return False
    if isinstance(item, IsNotNull):
        return True
    value = getattr(item, "value", None)
    if isinstance(item, EqualTo):
        return _equality_may_match(stats, value)
    if isinstance(item, In):
        return any(
            _equality_may_match(stats, member)
            for member in value
            if member is not None
        )
    if not _usable_bounds(stats):
        return True
    lo, hi = stats.min_value, stats.max_value
    try:
        if isinstance(item, GreaterThan):
            return hi > value
        if isinstance(item, GreaterThanOrEqual):
            return hi >= value
        if isinstance(item, LessThan):
            return lo < value
        if isinstance(item, LessThanOrEqual):
            return lo <= value
        if isinstance(item, StringStartsWith) and isinstance(value, str):
            return not _prefix_refutes(lo, hi, value)
        if isinstance(item, LikePattern) and isinstance(value, str):
            prefix = value.split("%", 1)[0].split("_", 1)[0]
            return not prefix or not _prefix_refutes(lo, hi, prefix)
    except TypeError:
        return True  # incomparable stats prove nothing
    return True


def _equality_may_match(stats: ColumnStats, value: Any) -> bool:
    """Equality refutation: bounds first, then the bloom if present."""
    if is_non_finite(value):
        # NaN set-membership has identity corner cases and Inf sits
        # outside the finite bounds by construction; refute nothing.
        return True
    if _usable_bounds(stats):
        try:
            if value < stats.min_value or value > stats.max_value:
                return False
        except TypeError:
            pass  # incomparable bounds prove nothing
    if stats.bloom is not None and not stats.bloom.may_contain(value):
        return False
    return True


def filters_may_match(
    filters: Sequence[Filter], resolve: StatsResolver
) -> bool:
    """Whether any row could satisfy *every* filter of the conjunction."""
    return all(filter_may_match(item, resolve) for item in filters)
