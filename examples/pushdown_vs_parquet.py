#!/usr/bin/env python3
"""Scoop pushdown vs Apache Parquet: the Fig. 8 comparison, live.

Stores the same GridPocket data twice -- as raw CSV (queried with
pushdown) and converted in the store to RCF1, the repo's encoded
columnar format, read *without* pushdown (whole column segments travel,
pruned to the query's columns by ranged reads: what a Parquet reader
does) -- then runs a projection query through both and compares what
actually crossed the store-to-compute boundary.  Finishes with the
Fig. 8 speedup curves from the performance model.

Run:  python examples/pushdown_vs_parquet.py
"""

from repro import ScoopContext
from repro.experiments import fig8_parquet_comparison, render_table
from repro.experiments.figures import fig8_crossover
from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset


def main() -> None:
    ctx = ScoopContext(storage_node_count=4, chunk_size=256 * 1024)
    upload_dataset(
        ctx.client, "meters", DatasetSpec(meters=60, intervals=1000, objects=4)
    )
    csv_bytes = ctx.connector.dataset_size("meters")

    print("converting the CSV container to columnar objects, in the store...")
    ctx.convert_csv_to_columnar("meters", "meters_rcf", METER_SCHEMA)
    columnar_bytes = ctx.connector.dataset_size("meters_rcf")
    print(
        f"CSV: {csv_bytes:,} B -> columnar: {columnar_bytes:,} B "
        f"(stored bytes per CSV byte {columnar_bytes / csv_bytes:.2f}; "
        "the model's Parquet ratio is 0.32)"
    )

    ctx.register_csv_table(
        "largeMeter", "meters", schema=METER_SCHEMA, format="csv"
    )
    ctx.register_columnar_table("largeMeterColumnar", "meters_rcf", pushdown=False)

    # A column-selective query: 3 of 10 columns, no row filter.
    sql = "SELECT vid, date, index FROM {}"
    scoop_frame, scoop_report = ctx.run_query(sql.format("largeMeter"))
    columnar_frame, columnar_report = ctx.run_query(sql.format("largeMeterColumnar"))
    assert scoop_frame.collect() == columnar_frame.collect()

    render_table(
        "Bytes ingested for SELECT vid, date, index (live run)",
        ["path", "bytes over the wire", "note"],
        [
            [
                "Scoop pushdown",
                f"{scoop_report.bytes_transferred:,}",
                "storlet projects at the store",
            ],
            [
                "columnar, no pushdown",
                f"{columnar_report.bytes_transferred:,}",
                "encoded segments of the three columns",
            ],
            ["raw CSV size", f"{csv_bytes:,}", "what plain ingest would move"],
        ],
    )

    # The paper's Fig. 8 curves at 50 GB scale.
    points = fig8_parquet_comparison(
        selectivities=(0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9)
    )
    render_table(
        "Fig. 8 -- speedup vs plain Swift (column selectivity, 50GB model)",
        ["selectivity", "Scoop", "Parquet"],
        [
            [
                f"{p.selectivity * 100:.0f}%",
                round(p.scoop_speedup, 2),
                round(p.parquet_speedup, 2),
            ]
            for p in points
        ],
    )
    crossover = fig8_crossover(points)
    print(
        f"\nScoop overtakes Parquet at ~{crossover * 100:.0f}% column "
        "selectivity (paper: >= 60%)"
    )


if __name__ == "__main__":
    main()
