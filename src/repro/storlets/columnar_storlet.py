"""Columnar pushdown storlets: segment-granular scans next to the disk.

Two storlets live here:

* :class:`ColumnarStorlet` is the RCF1 twin of the CSV pushdown storlet.
  The connector sends one ranged GET covering a split's stripes and
  passes the stripe/segment offsets (lifted from the object footer) as a
  parameter, so the storlet needs no footer access: it skips forward
  through the byte stream, decodes **only the segments the query
  references** (projected columns plus filter columns), runs the
  compiled filter mask from :mod:`repro.sql.kernels` per stripe -- once
  per dictionary entry over a dictionary-coded segment, on the byte
  planes of a packed narrow-int one -- gathers the surviving rows by
  that mask and emits them as one block stream per response
  (:class:`repro.columnar.layout.BlockStreamEncoder`: the schema once,
  then blocks whose dictionary columns are codes -- at the bits it
  needs -- into a stream dictionary that ships each entry once).  It
  moves bytes, not cells: a segment is decoded into a carrier over its
  own bytes (dictionary-coded or packed), the form a column ships in --
  and the mapping of its codes to the stream dictionary -- is settled
  once per stripe, and a response block is a slice of it.
  Non-referenced column segments are never even decoded.  A task
  carrying an ``aggregation`` is answered by partial aggregation over
  each stripe's selected columns instead
  (:mod:`repro.storlets.aggregation`).
* :class:`CsvToColumnarStorlet` is the PUT-path ETL converter: it parses
  a CSV stream through :class:`repro.csvscan.CsvScan` -- so with the drop
  rule of every CSV scan path -- and re-encodes the validated text of its
  blocks as a streaming RCF1 object, O(stripe) memory, no row tuple in
  between: a column's distinct texts are typed, not its cells.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterator, List, Tuple

from repro.catalog import CatalogBuilder
from repro.columnar.batch import ColumnBatch
from repro.columnar.layout import (
    DEFAULT_STRIPE_ROWS,
    ENCODING_NAMES,
    BlockStreamEncoder,
    TextBlock,
    decode_column,
    encode_column_stream,
)
from repro.csvscan import BLOCK_BYTES, CsvScan
from repro.sql.filters import filters_from_json
from repro.sql.kernels import FilterMask
from repro.sql.types import Schema
from repro.storlets.aggregation import partial_lines
from repro.storlets.api import (
    IStorlet,
    StorletException,
    StorletInputStream,
    StorletLogger,
    has_header,
    publish_counts,
)
from repro.storlets.csv_storlet import _coalesce

#: Upper bound on rows per emitted block.  Stripes are sized for scan
#: throughput (hundreds of KiB), but the *response* must stream at a
#: finer grain so the compute side sees its first batch after a few
#: chunks -- that is what lets a satisfied LIMIT abandon the GET
#: mid-stripe instead of paying for the whole split.
BLOCK_ROWS = 1024


class _SegmentReader:
    """Forward-only reader of absolute byte ranges from a chunk stream.

    The stream's first byte sits at absolute object offset ``position``;
    ``read_at`` requests must be non-overlapping and increasing, which
    segment layout guarantees (stripes and their columns are written in
    offset order).  Bytes between requests are skipped without copying
    more than one chunk of lookahead.
    """

    def __init__(self, chunks: Iterator[bytes], position: int):
        self._chunks = chunks
        self._position = position
        self._buffer = b""

    def _pull(self) -> None:
        try:
            self._buffer += next(self._chunks)
        except StopIteration:
            raise StorletException(
                "columnar range truncated before segment end"
            ) from None

    def read_at(self, offset: int, length: int) -> bytes:
        """Skip to absolute ``offset`` and read exactly ``length`` bytes."""
        if offset < self._position:
            raise StorletException("segment offsets must be increasing")
        while self._position + len(self._buffer) <= offset:
            self._position += len(self._buffer)
            self._buffer = b""
            self._pull()
        cut = offset - self._position
        if cut:
            self._buffer = self._buffer[cut:]
            self._position = offset
        while len(self._buffer) < length:
            self._pull()
        data = self._buffer[:length]
        self._buffer = self._buffer[length:]
        self._position += length
        return data


class ColumnarStorlet(IStorlet):
    """Selection + projection over the stripes of an RCF1 byte range.

    Parameters (all strings, from ``X-Storlet-Parameter-*`` headers):

    ``schema``
        Required full object column layout, ``name:type,...``.
    ``columns``
        Optional JSON list of column names to project (base-schema order
        is preserved in the output, as with the CSV storlet).
    ``filters``
        Optional JSON conjunctive filter list
        (see :mod:`repro.sql.filters`), compiled once into a mask kernel
        and run per stripe.
    ``stripes``
        Required JSON list of stripe descriptors
        ``{"rows": n, "cols": [[abs_offset, length], ...]}`` lifted from
        the object footer by the connector (stats-pruned stripes are
        simply absent from the list).
    ``range_start``
        Object offset of the first byte this invocation reads (set by
        the middleware from ``X-Storlet-Range``), which places the
        stripes' absolute segment offsets in the stream.
    ``aggregation`` / ``max_groups``
        Optional :class:`~repro.storlets.aggregation.AggregationSpec`
        JSON (and its group bound): answer with the partial-aggregation
        records of the selected rows instead of the rows.
    """

    name = "columnarstorlet"
    tallies = (
        ("segments_decoded", "segments", "encoding"),
        ("filter_evaluations", "filter-evals", "domain"),
        ("gathers", "gathers", "kind"),
        ("columns_shipped", "columns", "how"),
        ("dictionary_entries_shipped", "dict-entries", None),
        ("dictionary_resets", "dict-resets", None),
        ("stream_code_bits", "code-bits", "bits"),
    )

    def process(
        self,
        in_stream: StorletInputStream,
        parameters: Dict[str, str],
        logger: StorletLogger,
        metadata: Dict[str, str],
    ) -> Iterator[bytes]:
        """Stream the referenced segments and emit filtered blocks."""
        schema_text = parameters.get("schema")
        if not schema_text:
            raise StorletException("ColumnarStorlet requires a 'schema' parameter")
        schema = Schema.from_header(schema_text)
        stripes_text = parameters.get("stripes")
        if not stripes_text:
            raise StorletException("ColumnarStorlet requires a 'stripes' parameter")
        stripes = json.loads(stripes_text)
        range_start = int(parameters.get("range_start", 0))

        if parameters.get("columns"):
            project = sorted(
                schema.index_of(name)
                for name in json.loads(parameters["columns"])
            )
        else:
            project = list(range(len(schema)))

        filters = (
            filters_from_json(parameters["filters"])
            if parameters.get("filters")
            else []
        )
        selection = FilterMask(filters, schema)
        referenced = set(project)
        for item in filters:
            referenced.update(
                schema.index_of(name) for name in item.references()
            )
        needed = sorted(referenced)

        out_schema = schema.select([schema.names[index] for index in project])
        reader = _SegmentReader(in_stream.iter_chunks(), range_start)
        rows_in = rows_out = 0
        #: Segments decoded, by the encoding their tag byte names.
        decoded: Counter = Counter()
        #: Filter evaluations by domain: ``dictionary`` entries, rows on
        #: byte ``planes``, rows in a C-level pass (``rows_c``), ``rows``
        #: one Python call each.
        evaluations: Counter = Counter()
        #: Column gathers: ``mark_delete``, ``compress``.
        gathers: Counter = Counter()
        #: Block columns shipped: cut from a carrier that is the decoded
        #: segment (``verbatim``) or was gathered and ``settled``, or
        #: ``reencoded`` from the block's values.
        shipped: Counter = Counter()
        encoder = BlockStreamEncoder(out_schema, shipped)

        def selected() -> Iterator[Tuple[ColumnBatch, bool]]:
            """Each stripe's surviving rows, and whether any was cut."""
            nonlocal rows_in, rows_out
            for stripe in stripes:
                rows = stripe["rows"]
                rows_in += rows
                segments = stripe["cols"]
                vectors: List = [None] * len(schema)
                for index in needed:
                    offset, length = segments[index]
                    data = reader.read_at(offset, length)
                    vectors[index] = decode_column(
                        data, schema.fields[index].dtype, rows
                    )
                    decoded[ENCODING_NAMES[data[0]]] += 1
                # Filter and gather on the encoded form: a carrier stays
                # one from the segment to the response block.
                columns, kept = selection.select(
                    vectors, rows, project, evaluations, gathers
                )
                if kept:
                    rows_out += kept
                    yield ColumnBatch(out_schema, columns, kept), kept < rows

        if parameters.get("aggregation"):
            batches = (batch for batch, _gathered in selected())
            yield from _coalesce(
                partial_lines(batches, parameters, out_schema), BLOCK_BYTES
            )
        else:
            for batch, gathered in selected():
                yield from encoder.blocks(
                    batch.columns, len(batch), BLOCK_ROWS, gathered=gathered
                )

        metadata.update(
            {
                "x-object-meta-storlet-rows-in": str(rows_in),
                "x-object-meta-storlet-rows-out": str(rows_out),
                "x-object-meta-storlet-dict-entries": str(encoder.entries_shipped),
                "x-object-meta-storlet-dict-resets": str(encoder.resets),
            }
        )
        # Which path each column took, and the width of its stream codes.
        publish_counts(
            metadata,
            {
                "segments": decoded,
                "filter-evals": evaluations,
                "gathers": gathers,
                "columns": shipped,
                "code-bits": encoder.code_bits,
            },
        )
        logger.emit(
            f"columnarstorlet: {rows_in} rows in, {rows_out} rows out"
        )


class CsvToColumnarStorlet(IStorlet):
    """PUT-path ETL: convert a CSV object to RCF1 while it is stored.

    Parameters:

    ``schema``
        Required column layout of the incoming CSV.
    ``has_header``
        "true" if the first line is a header (dropped unparsed -- the
        schema travels in the footer instead); absent, it is not.
    ``delimiter``
        Field delimiter, default ``,``.
    ``stripe_rows``
        Optional stripe size override (rows per stripe).
    ``stripe_bytes``
        Optional stripe byte budget: flush a stripe as soon as its
        estimated encoded size reaches this many bytes.  Conversion
        passes the connector's split granule here so partition
        discovery over the result yields splits comparable to the
        row-oriented path.

    The drop rule is the CSV scan path's own (:mod:`repro.csvscan`:
    unframeable, wrong-width and untypable records are logged and
    dropped), so a query over the converted object returns
    byte-identical rows to the same query over the original CSV.  The
    scan types no column: it validates the blocks, and the encoder
    types each stripe column's distinct texts
    (:class:`~repro.columnar.layout.TextBlock`).  How the scan
    validated each block column -- ``proven`` by the numeric proof or
    ``parsed`` where it did not hold -- is published as
    ``x-object-meta-storlet-csv-columns-<how>`` and persists on the
    stored object.
    """

    name = "csv2columnar"
    tallies = (("csv_columns", "csv-columns", "how"),)

    def process(
        self,
        in_stream: StorletInputStream,
        parameters: Dict[str, str],
        logger: StorletLogger,
        metadata: Dict[str, str],
    ) -> Iterator[bytes]:
        """Parse the CSV stream and re-encode it as RCF1 stripes."""
        schema_text = parameters.get("schema")
        if not schema_text:
            raise StorletException(
                "CsvToColumnarStorlet requires a 'schema' parameter"
            )
        schema = Schema.from_header(schema_text)
        delimiter = parameters.get("delimiter", ",")
        stripe_rows = int(parameters.get("stripe_rows", DEFAULT_STRIPE_ROWS))
        stripe_bytes = (
            int(parameters["stripe_bytes"])
            if parameters.get("stripe_bytes")
            else None
        )
        scan = CsvScan(
            in_stream.iter_chunks(),
            schema,
            delimiter,
            skip_header=has_header(parameters),
            log=logger.emit,
        )
        # The data-skipping catalog is the merge of the statistics of
        # exactly the stripes that make it into the stored object, so a
        # later skip decision can never disagree with the bytes on disk.
        catalog = CatalogBuilder(schema)
        yield from encode_column_stream(
            schema,
            (TextBlock(block.texts) for block in scan.blocks(())),
            stripe_rows,
            stripe_bytes,
            on_stripe=catalog.add_stripe,
        )
        kept = scan.records_in - scan.dropped
        metadata.update(
            {
                "x-object-meta-columnar-rows": str(kept),
                "x-object-meta-columnar-dropped": str(scan.dropped),
                "x-object-meta-columnar-format": "RCF1",
            }
        )
        metadata.update(catalog.to_metadata())
        publish_counts(metadata, {"csv-columns": scan.column_checks})
        logger.emit(
            f"csv2columnar: {kept} rows encoded, {scan.dropped} dropped"
        )
