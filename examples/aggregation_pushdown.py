#!/usr/bin/env python3
"""Aggregation pushdown: whole GROUP BY queries computed at the store.

Section IV-A defines pushdown tasks broadly -- not just filters but
"a partial computation to be executed on object request (e.g.,
aggregations, statistics)".  This example runs the same dashboard query
three ways and compares what crossed the store-to-compute boundary:

1. plain ingest-then-compute (every byte travels),
2. filter pushdown (matching rows travel),
3. aggregation pushdown (only per-range partial group states travel).

Run:  python examples/aggregation_pushdown.py
"""

from repro import ScoopContext
from repro.experiments import render_table
from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset

SQL = (
    "SELECT vid, sum(index) as total, count(*) as readings, "
    "first_value(city) as city "
    "FROM {} WHERE date LIKE '2015-01%' GROUP BY vid ORDER BY vid"
)


def main() -> None:
    ctx = ScoopContext(storage_node_count=4, chunk_size=256 * 1024)
    upload_dataset(
        ctx.client, "meters", DatasetSpec(meters=50, intervals=1500, objects=4)
    )
    dataset_bytes = ctx.connector.dataset_size("meters")
    ctx.register_csv_table(
        "largeMeterPlain", "meters", schema=METER_SCHEMA, pushdown=False
    )
    ctx.register_csv_table(
        "largeMeter", "meters", schema=METER_SCHEMA, agg_pushdown=False
    )
    ctx.register_csv_table(
        "largeMeterAgg", "meters", schema=METER_SCHEMA, agg_pushdown=True
    )

    plain_frame, plain = ctx.run_query(SQL.format("largeMeterPlain"))
    filter_frame, filtered = ctx.run_query(SQL.format("largeMeter"))
    agg_frame, aggregated = ctx.run_query(SQL.format("largeMeterAgg"))

    # All three agree exactly: a SUM is the exact sum rounded once,
    # wherever its pieces were added up.
    agg_rows = agg_frame.collect()
    assert agg_rows == filter_frame.collect() == plain_frame.collect()

    render_table(
        f"Same query, three ingestion strategies ({dataset_bytes:,} B dataset)",
        ["strategy", "bytes over the wire", "% of dataset"],
        [
            [
                "ingest-then-compute",
                f"{plain.bytes_transferred:,}",
                f"{plain.bytes_transferred / dataset_bytes * 100:.2f}%",
            ],
            [
                "filter pushdown",
                f"{filtered.bytes_transferred:,}",
                f"{filtered.bytes_transferred / dataset_bytes * 100:.2f}%",
            ],
            [
                "aggregation pushdown",
                f"{aggregated.bytes_transferred:,}",
                f"{aggregated.bytes_transferred / dataset_bytes * 100:.2f}%",
            ],
        ],
    )
    print("\nfirst result rows (identical across all three):")
    for row in agg_rows[:4]:
        print(" ", dict(zip(agg_frame.schema.names, row)))


if __name__ == "__main__":
    main()
