"""Scalar function library and aggregate accumulators.

SUBSTRING follows Spark semantics: positions are 1-based and position 0
behaves like 1 (the GridPocket queries in Table I all use
``SUBSTRING(date, 0, k)`` to truncate ISO timestamps).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sql.errors import SqlAnalysisError


def _null_safe(function: Callable) -> Callable:
    """Return None when any argument is None (SQL scalar convention)."""

    def wrapper(*args: Any) -> Any:
        if any(arg is None for arg in args):
            return None
        return function(*args)

    return wrapper


@_null_safe
def sql_substring(value: Any, position: int, length: Optional[int] = None) -> str:
    text = str(value)
    position = int(position)
    if position > 0:
        start = position - 1
    elif position == 0:
        start = 0
    else:
        start = max(0, len(text) + position)
    if length is None:
        return text[start:]
    if length < 0:
        return ""
    return text[start : start + int(length)]


@_null_safe
def sql_upper(value: Any) -> str:
    return str(value).upper()


@_null_safe
def sql_lower(value: Any) -> str:
    return str(value).lower()


@_null_safe
def sql_length(value: Any) -> int:
    return len(str(value))


@_null_safe
def sql_trim(value: Any) -> str:
    return str(value).strip()


def sql_concat(*args: Any) -> Optional[str]:
    if any(arg is None for arg in args):
        return None
    return "".join(str(arg) for arg in args)


@_null_safe
def sql_abs(value: Any):
    return abs(value)


@_null_safe
def sql_round(value: Any, digits: int = 0):
    return round(float(value), int(digits))


@_null_safe
def sql_floor(value: Any) -> int:
    return math.floor(value)


@_null_safe
def sql_ceil(value: Any) -> int:
    return math.ceil(value)


def sql_coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


@_null_safe
def sql_cast_int(value: Any) -> int:
    return int(float(value))


@_null_safe
def sql_cast_float(value: Any) -> float:
    return float(value)


@_null_safe
def sql_year(value: Any) -> int:
    return int(str(value)[0:4])


@_null_safe
def sql_month(value: Any) -> int:
    return int(str(value)[5:7])


@_null_safe
def sql_day(value: Any) -> int:
    return int(str(value)[8:10])


@_null_safe
def sql_hour(value: Any) -> int:
    return int(str(value)[11:13])


# name -> (min_args, max_args, callable); max_args None = variadic
_SCALARS: Dict[str, Tuple[int, Optional[int], Callable]] = {
    "substring": (2, 3, sql_substring),
    "substr": (2, 3, sql_substring),
    "upper": (1, 1, sql_upper),
    "lower": (1, 1, sql_lower),
    "length": (1, 1, sql_length),
    "trim": (1, 1, sql_trim),
    "concat": (1, None, sql_concat),
    "abs": (1, 1, sql_abs),
    "round": (1, 2, sql_round),
    "floor": (1, 1, sql_floor),
    "ceil": (1, 1, sql_ceil),
    "coalesce": (1, None, sql_coalesce),
    "int": (1, 1, sql_cast_int),
    "float": (1, 1, sql_cast_float),
    "year": (1, 1, sql_year),
    "month": (1, 1, sql_month),
    "day": (1, 1, sql_day),
    "hour": (1, 1, sql_hour),
}


def lookup_scalar(name: str, arg_count: int) -> Callable:
    entry = _SCALARS.get(name.lower())
    if entry is None:
        raise SqlAnalysisError(f"unknown function {name!r}")
    minimum, maximum, function = entry
    if arg_count < minimum or (maximum is not None and arg_count > maximum):
        raise SqlAnalysisError(
            f"{name.upper()} takes "
            f"{minimum if maximum == minimum else f'{minimum}..{maximum or chr(8734)}'} "
            f"arguments, got {arg_count}"
        )
    return function


class Accumulator:
    """Incremental state for one aggregate over one group.

    The mergeable aggregates (everything but DISTINCT) also expose their
    state: ``state()`` is JSON-safe and ``merge(state)`` folds in what
    another accumulator of the same class saw, so a group aggregated in
    pieces -- per storlet byte range, per partition -- ends in the very
    state one accumulator fed every row would hold.

    ``add_many(values)`` is ``add`` over a list or tuple of inputs, in
    order; the batch aggregate calls it once per group per batch, so an
    accumulator that can take a run faster than cell by cell overrides
    it.  The state it leaves is the one the ``add`` calls would.
    """

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def add_many(self, values: Sequence[Any]) -> None:
        for value in values:
            self.add(value)

    def result(self) -> Any:
        raise NotImplementedError


#: Pending floats are folded into the partials once this many wait.
_COMPACT_AT = 64
#: Finite floats at least this large are summed as the integers they are,
#: so what ``math.fsum`` sees cannot overflow on the way to a finite sum.
_HUGE = 2.0**900


class SumAccumulator(Accumulator):
    """SUM as the exact sum of its inputs, rounded once.

    Integers add up in an ``int``; floats wait in ``pending`` and are
    folded, a batch at a time, into ``partials``: a list with the same
    exact sum, kept short by compacting it to Shewchuk's non-overlapping
    expansion (``math.fsum`` semantics).  So the value depends on the
    multiset of inputs alone -- not on row order, partitioning or where
    a partial state was merged.
    Non-finite inputs add the IEEE way (any NaN, or both infinities, is
    NaN), a finite sum beyond the double range rounds to an infinity,
    and a zero sum is ``+0.0``.  The result is a float once any input
    was.
    """

    def __init__(self) -> None:
        #: Non-NULL inputs folded in so far; ``pending`` is counted when
        #: it is folded.
        self.count = 0
        self.ints = 0
        self.special = 0.0
        self.partials: List[float] = []
        self.pending: List[float] = []

    def add(self, value: Any) -> None:
        if value.__class__ is float:
            pending = self.pending
            pending.append(value)
            if len(pending) >= _COMPACT_AT:
                self._fold()
        elif value is not None:
            self.count += 1
            self.ints += value

    def add_many(self, values: Sequence[Any]) -> None:
        floats = [value for value in values if value.__class__ is float]
        if len(floats) != len(values):
            rest = [
                value
                for value in values
                if value is not None and value.__class__ is not float
            ]
            self.count += len(rest)
            self.ints += sum(rest)
        # Fold where ``add`` would: each time ``_COMPACT_AT`` floats wait.
        pending = self.pending
        taken = 0
        while taken < len(floats):
            room = _COMPACT_AT - len(pending)
            pending.extend(floats[taken : taken + room])
            taken += room
            if len(pending) >= _COMPACT_AT:
                self._fold()

    def _head(self) -> float:
        """The correctly rounded sum of the floats met so far, with
        ``pending`` moved (uncompacted) behind ``partials``."""
        floats = self.partials + self.pending
        if not floats:
            return 0.0
        self.count += len(self.pending)
        self.pending.clear()
        try:
            head = math.fsum(floats)
        except (OverflowError, ValueError):
            head = math.nan
        if not math.isfinite(head):
            # An input is not finite, or the running sum left the double
            # range: take both kinds out and sum the rest again (a lone
            # 0.0 stays to say a float was summed).
            finite = []
            for value in floats:
                if not math.isfinite(value):
                    self.special += value
                elif abs(value) >= _HUGE:
                    self.ints += int(value)
                else:
                    finite.append(value)
            floats = finite or [0.0]
            head = math.fsum(floats)
        self.partials = floats
        return head

    def _fold(self) -> None:
        """Compact ``partials`` (and ``pending``) to the rounded sum
        followed by what each rounding left over, down to zero."""
        partials = [self._head()]
        if self.partials:
            floats = self.partials
            while partials[-1]:
                floats.append(-partials[-1])
                partials.append(math.fsum(floats))
            self.partials = partials[:-1] or partials

    def _rounded(self) -> Any:
        head = self._head()
        if not self.partials:
            return self.ints
        if self.special:
            return self.special
        if not self.ints:
            return head
        exact = self.ints + sum(map(Fraction, self.partials))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf

    def result(self) -> Any:
        total = self._rounded()
        return total if self.count else None

    def state(self) -> list:
        """The count, then terms whose exact sum is the sum: the integer
        part and the non-finite part when not zero, and the partials."""
        self._fold()
        terms = [self.count]
        if self.ints:
            terms.append(self.ints)
        if self.special:
            terms.append(self.special)
        return terms + self.partials

    def merge(self, state: Sequence[Any]) -> None:
        self.count += state[0]
        for term in state[1:]:
            if term.__class__ is float:
                self.partials.append(term)
            else:
                self.ints += term
        if len(self.partials) >= _COMPACT_AT:
            self._fold()


class AvgAccumulator(SumAccumulator):
    """AVG as the rounded exact sum over the integer count (so an
    all-integer average is the exact quotient, rounded once)."""

    def result(self) -> Optional[float]:
        total = self._rounded()
        return total / self.count if self.count else None


class CountAccumulator(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def add_many(self, values: Sequence[Any]) -> None:
        self.count += len(values) - values.count(None)

    def result(self) -> int:
        return self.count

    state = result

    def merge(self, state: int) -> None:
        self.count += state


def _nan_free(values: Sequence[Any]) -> Sequence[Any]:
    """``values`` (no NULL among them) without its NaNs -- the one value
    that is not equal to itself.  The list itself when it holds none."""
    if any(map(operator.ne, values, values)):
        return [value for value in values if value == value]
    return values


class MinAccumulator(Accumulator):
    """MIN under Spark's total order: NaN is greater than every number
    and NULL is ignored, so the result depends on the multiset of inputs
    alone (``<`` against NaN is False either way round)."""

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        best = self.best
        if best is None or value < best or (best != best and value == value):
            self.best = value

    def add_many(self, values: Sequence[Any]) -> None:
        present = [value for value in values if value is not None]
        if present:
            # Only a run of nothing but NaN has NaN for its minimum.
            self.add(min(_nan_free(present) or present))

    def result(self) -> Any:
        return self.best

    state = result
    merge = add


class MaxAccumulator(Accumulator):
    """MAX under the same total order: any NaN input is the maximum."""

    def __init__(self) -> None:
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        best = self.best
        if best is None or value > best or (value != value and best == best):
            self.best = value

    def add_many(self, values: Sequence[Any]) -> None:
        present = [value for value in values if value is not None]
        if present:
            numbers = _nan_free(present)
            self.add(max(numbers) if numbers is present else math.nan)

    def result(self) -> Any:
        return self.best

    state = result
    merge = add


class FirstValueAccumulator(Accumulator):
    def __init__(self) -> None:
        self.seen = False
        self.value: Any = None

    def add(self, value: Any) -> None:
        if not self.seen:
            self.seen = True
            self.value = value

    def add_many(self, values: Sequence[Any]) -> None:
        if values:
            self.add(values[0])

    def result(self) -> Any:
        return self.value

    def state(self) -> list:
        return [self.seen, self.value]

    def merge(self, state: Sequence[Any]) -> None:
        if state[0]:
            self.add(state[1])


class LastValueAccumulator(FirstValueAccumulator):
    """FIRST_VALUE's state, replaced by every input instead of kept."""

    def add(self, value: Any) -> None:
        self.seen = True
        self.value = value

    def add_many(self, values: Sequence[Any]) -> None:
        if values:
            self.add(values[-1])


class DistinctAccumulator(Accumulator):
    """Wraps another accumulator, feeding it each distinct value once."""

    def __init__(self, inner: Accumulator):
        self.inner = inner
        self.seen: set = set()

    def add(self, value: Any) -> None:
        if value in self.seen:
            return
        self.seen.add(value)
        self.inner.add(value)

    def add_many(self, values: Sequence[Any]) -> None:
        fresh = [value for value in dict.fromkeys(values) if value not in self.seen]
        self.seen.update(fresh)
        self.inner.add_many(fresh)

    def result(self) -> Any:
        return self.inner.result()


_ACCUMULATORS: Dict[str, Callable[[], Accumulator]] = {
    "sum": SumAccumulator,
    "count": CountAccumulator,
    "min": MinAccumulator,
    "max": MaxAccumulator,
    "avg": AvgAccumulator,
    "first_value": FirstValueAccumulator,
    "last_value": LastValueAccumulator,
}


def make_accumulator(name: str, distinct: bool = False) -> Accumulator:
    factory = _ACCUMULATORS.get(name.lower())
    if factory is None:
        raise SqlAnalysisError(f"unknown aggregate {name!r}")
    accumulator = factory()
    if distinct:
        accumulator = DistinctAccumulator(accumulator)
    return accumulator
