"""Columnar object layout and batch containers (the RCF1 mini-Parquet).

This package is the storage-format half of the columnar fast path: a
binary per-column object layout with typed encodings and a footer of
segment offsets plus min/max statistics (:mod:`repro.columnar.layout`),
the :class:`~repro.columnar.batch.ColumnBatch` container that flows
through the streaming data plane, and stripe-level predicate pruning
over footer statistics (:mod:`repro.columnar.pruning`).  The compute
half -- compile-once batch kernels -- lives in :mod:`repro.sql.kernels`.
"""

from repro.columnar.batch import ColumnBatch, DictColumn, PackedColumn
from repro.columnar.layout import (
    MAGIC,
    BlockStreamDecoder,
    BlockStreamEncoder,
    ColumnarFooter,
    SegmentMeta,
    StripeMeta,
    decode_block_stream,
    decode_column,
    decode_footer,
    decode_segment,
    decode_stripe,
    encode_column_stream,
    encode_columnar,
    encode_segment,
    encode_stream,
    footer_from_tail,
    iter_stripe_batches,
)
from repro.columnar.pruning import stripe_may_match
from repro.columnar.stats import (
    BloomFilter,
    ColumnStats,
    filter_may_match,
    filters_may_match,
)

__all__ = [
    "BloomFilter",
    "ColumnStats",
    "filter_may_match",
    "filters_may_match",
    "MAGIC",
    "BlockStreamDecoder",
    "BlockStreamEncoder",
    "ColumnBatch",
    "DictColumn",
    "PackedColumn",
    "ColumnarFooter",
    "SegmentMeta",
    "StripeMeta",
    "decode_block_stream",
    "decode_column",
    "decode_footer",
    "decode_segment",
    "decode_stripe",
    "encode_column_stream",
    "encode_columnar",
    "encode_segment",
    "encode_stream",
    "footer_from_tail",
    "iter_stripe_batches",
    "stripe_may_match",
]
