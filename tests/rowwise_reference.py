"""RCF1 ingest written one row and one cell at a time: the reference.

The production path is column-major
(:func:`repro.columnar.layout.encode_column_stream`, the object catalog
merged from stripe statistics).  This module writes the same format the
slow, obvious way: ``encode_stream`` buffers row tuples, sizes stripes
by walking every row (``row_cost``), zips each stripe into columns and
walks every cell again for the null split and the statistics, builds
every candidate encoding of every segment in full (plain, dictionary,
narrow int, decimal) and keeps the smallest, while ``RowwiseCatalog.observe``
folds every cell of every row into the object catalog.  The differential tests
(``tests/test_columnar_ingest.py``) require the two to agree byte for
byte; the CI throughput gate (``benchmarks/test_ingest_smoke.py``)
requires the production path to be at least 4.8 times as fast.

Only the *format's* definitions are shared with ``src/`` (magic, the
four plain tags, footer JSON shape, bloom keying and hashing); every
loop is this module's own, and so are the three newer tags and the
size rule that picks between encodings.  The bloom rule is the documented one -- a column keeps
its bloom iff it holds at most ``MAX_BLOOM_KEYS`` distinct canonical
keys and no unkeyable value -- in its simplest row-wise form: collect
every key, decide at the end.

The second half of the module is a WHERE evaluated one row and one node
at a time (``where_value`` over tuple trees, ``where_sql`` to hand the
same predicate to the stack), sharing nothing with ``repro.sql``: the
reference of ``tests/test_handled_filters.py``.
"""

import json
import math
import struct

from repro.catalog.metadata import CATALOG_HEADER, CATALOG_VERSION, MAX_BLOOM_KEYS
from repro.columnar.layout import (
    ENC_BOOL,
    ENC_FLOAT64,
    ENC_INT64,
    ENC_TEXT,
    MAGIC,
    ColumnarFooter,
    SegmentMeta,
    StripeMeta,
)
from repro.columnar.stats import BloomFilter, canonical_bloom_key, is_non_finite
from repro.sql.types import DataType


def row_cost(row):
    cost = 1
    for value in row:
        if value is None:
            continue
        if isinstance(value, str):
            cost += 4 + len(value)
        elif isinstance(value, bool):
            cost += 1
        else:
            cost += 8
    return cost


def _encode_text(texts):
    raw = [text.encode("utf-8") for text in texts]
    return struct.pack(f"<{len(raw)}I", *[len(item) for item in raw]) + b"".join(raw)


#: The three encodings a segment may take instead of its dtype's plain
#: one, spelled out here on purpose: tag 4 is the dictionary, tag 5 the
#: narrow int, tag 7 the decimal.
ENC_DICT, ENC_NARROW_INT, ENC_DECIMAL = 4, 5, 7


def _plain(non_null, dtype):
    """``(tag, payload)`` in the dtype's plain encoding."""
    if dtype is DataType.INT:
        if all(-(2**63) <= v <= 2**63 - 1 for v in non_null):
            return ENC_INT64, struct.pack(f"<{len(non_null)}q", *non_null)
        return ENC_TEXT, _encode_text([str(v) for v in non_null])
    if dtype is DataType.FLOAT:
        return ENC_FLOAT64, struct.pack(
            f"<{len(non_null)}d", *[float(v) for v in non_null]
        )
    if dtype is DataType.BOOL:
        packed = bytearray((len(non_null) + 7) // 8)
        for i, value in enumerate(non_null):
            if value:
                packed[i >> 3] |= 1 << (i & 7)
        return ENC_BOOL, bytes(packed)
    return ENC_TEXT, _encode_text([str(v) for v in non_null])


def _dictionary(non_null, dtype):
    """``u8 code width | u32 entry count | entries as a plain NULL-free
    segment | one code per value``; entries in first-appearance order,
    a float told apart by its 8 bytes.  ``None`` past 65 536 entries."""
    entries, codes, seen = [], [], {}
    for value in non_null:
        key = struct.pack("<d", value) if dtype is DataType.FLOAT else value
        if key not in seen:
            seen[key] = len(entries)
            entries.append(value)
        codes.append(seen[key])
    if len(entries) > 65536:
        return None
    width, fmt = (1, "<B") if len(entries) <= 256 else (2, "<H")
    tag, payload = _plain(entries, dtype)
    out = bytearray([width])
    out += struct.pack("<I", len(entries))
    out += bytes([tag]) + bytes((len(entries) + 7) // 8) + payload
    for code in codes:
        out += struct.pack(fmt, code)
    return bytes(out)


def _narrow_int(non_null, dtype):
    """``u8 offset width | int64 base | one unsigned offset per value``:
    base is the smallest value, the width the narrowest of 1 / 2 / 4
    bytes that holds the largest offset.  ``None`` where it does not
    apply (not an int64 run, empty, or offsets past 4 bytes)."""
    if dtype is not DataType.INT or not non_null:
        return None
    if not all(-(2**63) <= v <= 2**63 - 1 for v in non_null):
        return None
    base = min(non_null)
    for width, fmt in ((1, "<B"), (2, "<H"), (4, "<I")):
        if max(non_null) - base < 256**width:
            out = bytearray([width]) + struct.pack("<q", base)
            for value in non_null:
                out += struct.pack(fmt, value - base)
            return bytes(out)
    return None


def _decimal(non_null, dtype):
    """``u8 exponent e | u8 offset width | int64 base | one unsigned
    offset per value`` of the scaled integers ``k = round(value *
    10**e)``: ``e`` is the smallest of 0 to 15 at which every value is
    ``k / 10**e`` to the bit, with ``|k| < 2**53``; base and width as the
    narrow int's.  ``None`` where it does not apply (not a FLOAT run,
    empty, no such ``e`` -- a NaN, an infinity or a ``-0.0`` anywhere --
    or offsets past 4 bytes)."""
    if dtype is not DataType.FLOAT or not non_null:
        return None
    for exponent in range(16):
        scale = 10.0**exponent
        scaled = []
        for value in non_null:
            if math.isnan(value) or math.isinf(value):
                return None
            if abs(value * scale) >= 2**53:
                break
            k = round(value * scale)
            if struct.pack("<d", k / scale) != struct.pack("<d", value):
                break
            scaled.append(k)
        else:
            base = min(scaled)
            for width, fmt in ((1, "<B"), (2, "<H"), (4, "<I")):
                if max(scaled) - base < 256**width:
                    out = bytearray([exponent, width]) + struct.pack("<q", base)
                    for k in scaled:
                        out += struct.pack(fmt, k - base)
                    return bytes(out)
            return None
    return None


def encode_segment(values, dtype):
    """``(data, nulls, min, max, has_nan)``, one cell at a time.

    The size rule: build the plain, the dictionary, the narrow-int and
    the decimal payload, in that order; a later one is taken only when
    it is strictly smaller than the one held.
    """
    bitmap = bytearray((len(values) + 7) // 8)
    non_null = []
    for i, value in enumerate(values):
        if value is None:
            bitmap[i >> 3] |= 1 << (i & 7)
        else:
            non_null.append(value)
    tag, payload = _plain(non_null, dtype)
    for other_tag, other in (
        (ENC_DICT, _dictionary(non_null, dtype)),
        (ENC_NARROW_INT, _narrow_int(non_null, dtype)),
        (ENC_DECIMAL, _decimal(non_null, dtype)),
    ):
        if other is not None and len(other) < len(payload):
            tag, payload = other_tag, other
    lo = hi = None
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
    data = bytes((tag,)) + bytes(bitmap) + payload
    return data, len(values) - len(non_null), lo, hi, has_nan


def encode_stream(schema, rows, stripe_rows=4096, stripe_bytes=None):
    """RCF1 chunks from row tuples: buffer, cost and flush row by row."""
    yield MAGIC
    position = len(MAGIC)
    stripes = []
    total_rows = 0

    def encode_stripe(buffer):
        nonlocal position, total_rows
        parts, segments = [], []
        for fld, vector in zip(schema.fields, zip(*buffer)):
            data, nulls, lo, hi, has_nan = encode_segment(list(vector), fld.dtype)
            segments.append(
                SegmentMeta(position, len(data), lo, hi, nulls, has_nan)
            )
            parts.append(data)
            position += len(data)
        stripes.append(StripeMeta(rows=len(buffer), columns=segments))
        total_rows += len(buffer)
        return b"".join(parts)

    buffer, buffered_cost = [], 0
    for row in rows:
        buffer.append(row)
        if stripe_bytes is not None:
            buffered_cost += row_cost(row)
        if len(buffer) >= stripe_rows or (
            stripe_bytes is not None and buffered_cost >= stripe_bytes
        ):
            yield encode_stripe(buffer)
            buffer, buffered_cost = [], 0
    if buffer:
        yield encode_stripe(buffer)
    footer = ColumnarFooter(schema, total_rows, stripes, position)
    payload = json.dumps(
        footer.to_payload(), separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    yield payload + f"{len(payload):08d}".encode("ascii") + MAGIC


class RowwiseCatalog:
    """The object catalog folded one cell at a time."""

    def __init__(self, schema):
        self.names = [fld.name.lower() for fld in schema.fields]
        self.columns = [
            {"min": None, "max": None, "nulls": 0, "nan": False, "keys": set()}
            for _ in schema.fields
        ]
        self.rows = 0

    def observe(self, row):
        self.rows += 1
        for column, value in zip(self.columns, row):
            if value is None:
                column["nulls"] += 1
                continue
            column["keys"].add(canonical_bloom_key(value))  # None = unkeyable
            if is_non_finite(value):
                column["nan"] = True
            elif column["min"] is None:
                column["min"] = column["max"] = value
            else:
                if value < column["min"]:
                    column["min"] = value
                if value > column["max"]:
                    column["max"] = value

    def to_metadata(self):
        cols = {}
        for name, column in zip(self.names, self.columns):
            entry = {
                "min": column["min"],
                "max": column["max"],
                "nulls": column["nulls"],
            }
            if column["nan"]:
                entry["nan"] = True
            keys = column["keys"]
            if keys and None not in keys and len(keys) <= MAX_BLOOM_KEYS:
                bloom = BloomFilter.of_keys(sorted(keys))
                entry.update(bloom=bloom.to_hex(), bb=bloom.bits, bh=bloom.hashes)
            cols[name] = entry
        payload = {"v": CATALOG_VERSION, "rows": self.rows, "cols": cols}
        return {
            CATALOG_HEADER: json.dumps(
                payload, separators=(",", ":"), allow_nan=False
            )
        }


# ---------------------------------------------------------------------------
# WHERE, one row and one node at a time.
#
# The reference for ``tests/test_handled_filters.py``: a predicate is a
# tuple tree, rendered to SQL for the stack and judged here in plain
# Python -- no parser, no expression classes, no filters, no kernels of
# ``src/``.  The dialect is the repo's, stated where it differs from the
# standard:
#
# * three-valued logic; WHERE keeps a row only when its predicate is
#   exactly true;
# * ``=`` / ``<>`` between a number and a string are false / true, an
#   *ordered* comparison between them is an error (``Incomparable``);
# * ``x IN (...)`` is ``x = a OR x = b OR ...`` under three-valued OR:
#   a miss beside a NULL member is NULL, so ``x NOT IN (1, NULL)`` keeps
#   nothing;
# * ``x BETWEEN lo AND hi`` is ``x >= lo AND x <= hi`` under three-valued
#   AND: beside a NULL bound the other comparison can still say False,
#   so ``10 NOT BETWEEN NULL AND 5`` is true;
# * LIKE matches the text of the value (``str``), ``%`` any run, ``_``
#   any one character, the whole text.
#
# Nodes: ("cmp", col, op, literal) -- ("arith", col, addend, op, literal)
# for ``col + addend op literal`` -- ("like", col, pattern, negated) --
# ("in", col, literals, negated) -- ("between", col, low, high, negated)
# -- ("null", col, negated) -- ("not", node) -- ("and" | "or", a, b).
# ---------------------------------------------------------------------------


class Incomparable(Exception):
    """An ordered comparison or arithmetic between a number and a string."""


def sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def where_sql(node):
    kind = node[0]
    if kind == "cmp":
        _, col, op, literal = node
        return f"{col} {op} {sql_literal(literal)}"
    if kind == "arith":
        _, col, addend, op, literal = node
        return f"{col} + {sql_literal(addend)} {op} {sql_literal(literal)}"
    if kind == "like":
        _, col, pattern, negated = node
        return f"{col} {'NOT ' if negated else ''}LIKE {sql_literal(pattern)}"
    if kind == "in":
        _, col, literals, negated = node
        members = ", ".join(sql_literal(item) for item in literals)
        return f"{col} {'NOT ' if negated else ''}IN ({members})"
    if kind == "between":
        _, col, low, high, negated = node
        return (
            f"{col} {'NOT ' if negated else ''}BETWEEN "
            f"{sql_literal(low)} AND {sql_literal(high)}"
        )
    if kind == "null":
        _, col, negated = node
        return f"{col} IS {'NOT ' if negated else ''}NULL"
    if kind == "not":
        return f"NOT ({where_sql(node[1])})"
    return f"({where_sql(node[1])} {kind.upper()} {where_sql(node[2])})"


def _is_text(value):
    return isinstance(value, str)


def _compare(op, a, b):
    if a is None or b is None:
        return None
    if op == "=":
        return a == b
    if op in ("<>", "!="):
        return a != b
    if _is_text(a) != _is_text(b):
        raise Incomparable(f"{a!r} {op} {b!r}")
    return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]


def like_matches(text, pattern):
    """Does the whole of ``text`` match ``pattern``?  Classic two-row
    dynamic programme over (pattern prefix, text prefix)."""
    reach = [True] + [False] * len(text)
    for symbol in pattern:
        if symbol == "%":
            for index in range(1, len(text) + 1):
                reach[index] = reach[index] or reach[index - 1]
            continue
        shifted = [False] * (len(text) + 1)
        for index, char in enumerate(text):
            if reach[index] and (symbol == "_" or symbol == char):
                shifted[index + 1] = True
        reach = shifted
    return reach[len(text)]


def where_value(node, row):
    """True / False / None for one predicate over ``row`` (a mapping of
    column name to value).  Every operand is evaluated -- no short
    circuit -- so an ``Incomparable`` anywhere in the tree surfaces."""
    kind = node[0]
    if kind == "cmp":
        _, col, op, literal = node
        return _compare(op, row[col], literal)
    if kind == "arith":
        _, col, addend, op, literal = node
        value = row[col]
        if value is None or addend is None:
            return None
        if _is_text(value) != _is_text(addend):
            raise Incomparable(f"{value!r} + {addend!r}")
        return _compare(op, value + addend, literal)
    if kind == "like":
        _, col, pattern, negated = node
        if row[col] is None:
            return None
        return like_matches(str(row[col]), pattern) is not negated
    if kind == "in":
        _, col, literals, negated = node
        verdict = False  # the empty OR
        for item in literals:
            verdict = _or(verdict, _compare("=", row[col], item))
        return _not(verdict) if negated else verdict
    if kind == "between":
        _, col, low, high, negated = node
        value = row[col]
        if value is None:
            return None
        present = [item for item in (value, low, high) if item is not None]
        if len({_is_text(item) for item in present}) > 1:
            raise Incomparable(f"{value!r} BETWEEN {low!r} AND {high!r}")
        verdict = _and(_compare(">=", value, low), _compare("<=", value, high))
        return _not(verdict) if negated else verdict
    if kind == "null":
        _, col, negated = node
        return (row[col] is None) is not negated
    if kind == "not":
        return _not(where_value(node[1], row))
    left, right = where_value(node[1], row), where_value(node[2], row)
    return _and(left, right) if kind == "and" else _or(left, right)


def _not(verdict):
    return None if verdict is None else not verdict


def _and(left, right):
    if left is False or right is False:
        return False
    return None if left is None or right is None else True


def _or(left, right):
    if left is True or right is True:
        return True
    return None if left is None or right is None else False


def where_keeps(conjuncts, row):
    """Does WHERE ``conjuncts[0] AND conjuncts[1] ...`` keep ``row``?"""
    verdicts = [where_value(node, row) for node in conjuncts]
    return all(verdict is True for verdict in verdicts)
