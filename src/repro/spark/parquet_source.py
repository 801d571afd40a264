"""A Parquet-like columnar format: the Fig. 8 comparison baseline.

Apache Parquet "provides two main benefits: i) Being columnar, it is
possible to efficiently perform column projection; ii) Parquet stores
highly optimized compressed data ... Note that Spark is in charge of
carrying out the tasks of (de)compressing data and discarding columns"
(paper Section VI-C).  We reproduce those two effects faithfully at the
format level:

* objects store zlib-compressed per-column chunks grouped in row groups,
  with a JSON footer indexing them;
* readers transfer the **whole object** (the Swift driver of the era did
  not do server-side column ranges) but decompress and decode **only the
  required columns** -- compute-side pruning, compute-side decompression.

File layout::

    MAGIC | chunk .. chunk | footer-JSON | footer-length (8 ASCII) | MAGIC
"""

from __future__ import annotations

import json
import zlib
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.connector.stocator import ObjectSplit, StocatorConnector
from repro.csvscan import CsvScan
from repro.sql.types import Row, Schema
from repro.spark.datasources import PrunedScan
from repro.spark.rdd import RDD

MAGIC = b"RPQ1"
_SEP = "\x00"  # value separator inside a column chunk
_NULL = "\x01"  # NULL sentinel (must not contain _SEP)


class ParquetFormatError(ValueError):
    """Raised when an object does not decode as our parquet format."""


def encode_parquet(
    schema: Schema,
    rows: Iterable[Row],
    row_group_size: int = 50_000,
    compression_level: int = 6,
) -> bytes:
    """Serialize rows into the columnar object format."""
    body = bytearray(MAGIC)
    row_groups: List[dict] = []
    buffered: List[Row] = []

    def flush_group() -> None:
        nonlocal buffered
        if not buffered:
            return
        columns_meta = []
        for position in range(len(schema)):
            dtype = schema.fields[position].dtype
            encoded = _SEP.join(
                _NULL if row[position] is None else dtype.render(row[position])
                for row in buffered
            ).encode("utf-8")
            compressed = zlib.compress(encoded, compression_level)
            columns_meta.append(
                {
                    "offset": len(body),
                    "length": len(compressed),
                    "raw_length": len(encoded),
                }
            )
            body.extend(compressed)
        row_groups.append({"num_rows": len(buffered), "columns": columns_meta})
        buffered = []

    for row in rows:
        buffered.append(row)
        if len(buffered) >= row_group_size:
            flush_group()
    flush_group()

    footer = json.dumps(
        {"schema": schema.to_header(), "row_groups": row_groups}
    ).encode("utf-8")
    body.extend(footer)
    body.extend(f"{len(footer):08d}".encode("ascii"))
    body.extend(MAGIC)
    return bytes(body)


def decode_footer(data: bytes) -> Tuple[Schema, List[dict]]:
    if len(data) < 2 * len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
        raise ParquetFormatError("bad magic (not a parquet-like object)")
    if data[-len(MAGIC) :] != MAGIC:
        raise ParquetFormatError("truncated object (no trailing magic)")
    footer_length = int(data[-len(MAGIC) - 8 : -len(MAGIC)])
    footer_start = len(data) - len(MAGIC) - 8 - footer_length
    footer = json.loads(data[footer_start : footer_start + footer_length])
    return Schema.from_header(footer["schema"]), footer["row_groups"]


def decode_columns(
    data: bytes,
    schema: Schema,
    row_groups: List[dict],
    required_columns: Sequence[str],
) -> Iterator[Row]:
    """Decode only the required columns (the compute-side pruning)."""
    positions = [schema.index_of(name) for name in required_columns]
    dtypes = [schema.fields[position].dtype for position in positions]
    for group in row_groups:
        num_rows = group["num_rows"]
        decoded: List[List] = []
        for position, dtype in zip(positions, dtypes):
            meta = group["columns"][position]
            raw = zlib.decompress(
                data[meta["offset"] : meta["offset"] + meta["length"]]
            ).decode("utf-8")
            values = raw.split(_SEP) if raw else []
            if len(values) != num_rows:
                raise ParquetFormatError(
                    f"column decoded {len(values)} values, expected {num_rows}"
                )
            decoded.append(
                [None if v == _NULL else dtype.parse(v) for v in values]
            )
        for row_index in range(num_rows):
            yield tuple(column[row_index] for column in decoded)


class ParquetScanRDD(RDD[Row]):
    """One partition per parquet object; whole object transferred."""

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        container: str,
        names: List[str],
        required_columns: List[str],
    ):
        super().__init__(context)
        self.name = "ParquetScan"
        self.connector = connector
        self.container = container
        self.names = names
        self.required_columns = required_columns

    def num_partitions(self) -> int:
        return len(self.names)

    def compute(self, split: int) -> Iterator[Row]:
        object_name = self.names[split]
        size = int(
            self.connector.client.head_object(
                self.container, object_name
            ).get("content-length", "0")
        )
        # The whole compressed object crosses the wire -- that is the
        # Parquet trade-off in Fig. 8.  The read goes through the
        # connector's spanned, metered split path so the trace's
        # connector-tier byte totals reconcile with TransferMetrics
        # (a bare client GET plus a manual record() used to leave the
        # transfer invisible to the trace).
        object_split = ObjectSplit(
            self.container, object_name, 0, size, size, split
        )
        _headers, chunks = self.connector.open_split_stream(
            object_split, task=None
        )
        data = b"".join(chunks)
        schema, row_groups = decode_footer(data)
        required = self.required_columns or schema.names
        return decode_columns(data, schema, row_groups, required)


class ParquetRelation(PrunedScan):
    """Parquet-like data in a container; column pruning at the reader."""

    def __init__(
        self,
        context,
        connector: StocatorConnector,
        container: str,
        prefix: str = "",
        schema: Optional[Schema] = None,
    ):
        self.context = context
        self.connector = connector
        self.container = container
        self.prefix = prefix
        self._names = connector.client.list_objects(container, prefix=prefix)
        if not self._names:
            raise ValueError(f"no parquet objects under /{container}/{prefix}")
        if schema is None:
            _headers, data = connector.client.get_object(
                container, self._names[0]
            )
            schema, _groups = decode_footer(data)
        self._schema = schema

    def schema(self) -> Schema:
        return self._schema

    def size_in_bytes(self) -> int:
        return self.connector.dataset_size(self.container, self.prefix)

    def build_scan_pruned(self, required_columns: Sequence[str]) -> RDD:
        return ParquetScanRDD(
            self.context,
            self.connector,
            self.container,
            self._names,
            list(required_columns),
        )

    def build_scan(self) -> RDD:
        return self.build_scan_pruned(self._schema.names)


def convert_csv_container(
    connector: StocatorConnector,
    source_container: str,
    target_container: str,
    schema: Schema,
    has_header: bool = False,
    delimiter: str = ",",
    row_group_size: int = 50_000,
) -> List[str]:
    """Re-encode every CSV object of a container as a parquet object."""
    connector.client.put_container(target_container)
    written = []
    for name in connector.client.list_objects(source_container):
        _headers, data = connector.client.get_object(source_container, name)
        rows = list(
            CsvScan([data], schema, delimiter, skip_header=has_header).rows()
        )
        target_name = name.rsplit(".", 1)[0] + ".parquet"
        connector.client.put_object(
            target_container,
            target_name,
            encode_parquet(schema, rows, row_group_size),
        )
        written.append(target_name)
    return written
