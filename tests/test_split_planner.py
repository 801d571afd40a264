"""Quote-aware split planning: boundaries never bisect a quoted field.

Covers the planner in isolation (grid identity for unquoted data,
sliding for quoted data, ``None`` for unterminated quotes), the
connector's record-aligned discovery (demotion counters and logging),
and the end-to-end invariant the planner exists for: a quoted CSV whose
records span chunk boundaries scans to exactly the same rows at any
chunk size, pushdown or plain.
"""

import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro.connector.split_planner import plan_quote_safe_starts
from repro.core.scoop import ScoopContext
from repro.obs.metrics import MetricsRegistry
from repro.sql.types import Schema
from repro.csvscan import parse_record


def _quoted_csv(rows):
    """Render rows with every field quoted (commas/newlines preserved)."""
    return "".join(
        ",".join('"' + field.replace('"', '""') + '"' for field in row)
        + "\r\n"
        for row in rows
    ).encode("utf-8")


class TestPlanner:
    def test_unquoted_data_keeps_the_exact_grid(self):
        data = b"a,b\n" * 100
        assert plan_quote_safe_starts(data, 64) == list(
            range(0, len(data), 64)
        )

    def test_boundary_inside_quoted_field_slides_to_record_start(self):
        rows = [(f"name{i}", "x,y\nz" * 10) for i in range(50)]
        data = _quoted_csv(rows)
        chunk = 97
        starts = plan_quote_safe_starts(data, chunk)
        assert starts is not None and starts[0] == 0
        assert starts == sorted(set(starts))
        # No planned start sits inside a quoted field: the quote parity
        # before each boundary is even (grid boundaries are only kept
        # when that already holds; slid ones land on record starts).
        for start in starts[1:]:
            assert data.count(b'"', 0, start) % 2 == 0
        # At least one grid point needed sliding for this data.
        grid = set(range(0, len(data), chunk))
        assert any(start not in grid for start in starts)

    def test_unterminated_quote_returns_none(self):
        data = b'a,b\nc,"never closed...\nmore\nmore'
        assert plan_quote_safe_starts(data, 8) is None

    def test_quote_closing_after_boundary_is_aligned(self):
        # One long quoted field spanning several grid points: all of
        # them collapse onto the single next record start.
        body = '"short","' + "x" * 300 + '"\n"a","b"\n'
        data = body.encode()
        starts = plan_quote_safe_starts(data, 64)
        assert starts is not None
        assert starts[0] == 0
        for start in starts[1:]:
            assert data[start - 1 : start] == b"\n"

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.text(
                    alphabet=st.sampled_from(list('ab,"\n\r')), max_size=8
                ),
                st.text(
                    alphabet=st.sampled_from(list("xy,\n")), max_size=8
                ),
            ),
            min_size=1,
            max_size=30,
        ),
        chunk=st.integers(4, 64),
    )
    def test_every_split_parses_cleanly(self, rows, chunk):
        """Property: scanning each planned split with the storlet's own
        record scanner recovers every record exactly once."""
        data = _quoted_csv(rows)
        starts = plan_quote_safe_starts(data, chunk)
        assert starts is not None  # _quoted_csv always closes its quotes
        from repro.csvscan import owned_records

        bounds = starts + [len(data)]
        recovered = []
        for start, end in zip(bounds, bounds[1:]):
            # The real ranged GET streams from the split start to end of
            # object (the tail past range_len is the lookahead that
            # finishes a straddling record).
            recovered.extend(
                owned_records([data[start:]], start, end - start)
            )
        parsed = [tuple(parse_record(line, ",")) for line in recovered]
        assert parsed == [tuple(row) for row in rows]


class TestConnectorAlignment:
    def _rig(self, chunk_size=32):
        ctx = ScoopContext(chunk_size=chunk_size)
        connector = ctx.connector
        connector.metrics.registry = MetricsRegistry()
        return ctx, connector

    def test_aligned_discovery_splits_quoted_object(self):
        ctx, connector = self._rig()
        rows = [(f"id{i}", "multi\nline,value") for i in range(40)]
        ctx.client.put_container("c")
        ctx.client.put_object("c", "q.csv", _quoted_csv(rows))
        splits = connector.discover_partitions("c", record_aligned=True)
        assert len(splits) > 1
        assert connector.demoted_objects == []

    def test_unterminated_quote_demotes_with_counter(self, caplog):
        ctx, connector = self._rig()
        ctx.client.put_container("c")
        ctx.client.put_object(
            "c", "bad.csv", b'a,"never closed\n' + b"x" * 200
        )
        with caplog.at_level(logging.WARNING, logger="repro.connector"):
            splits = connector.discover_partitions("c", record_aligned=True)
        assert len(splits) == 1
        assert splits[0].start == 0
        assert connector.demoted_objects == [
            ("c", "bad.csv", "unterminated-quote")
        ]
        assert (
            connector.metrics.registry.counter_value(
                "connector.splits_demoted", reason="unterminated-quote"
            )
            == 1
        )
        assert "bad.csv" in caplog.text

    def test_small_objects_take_no_alignment_read(self):
        """Objects within one chunk never need the alignment GET."""
        ctx, connector = self._rig(chunk_size=1 << 20)
        ctx.client.put_container("c")
        ctx.client.put_object("c", "s.csv", _quoted_csv([("a", "b")]))
        splits = connector.discover_partitions("c", record_aligned=True)
        assert len(splits) == 1

    def test_alignment_reads_are_counted_as_discovery_bytes(self):
        """The alignment GET reads every object larger than a chunk
        whole: counted in the registry, never in TransferMetrics."""
        bodies = [
            _quoted_csv([(f"id{index}", "x" * width)] * 9)
            for index, width in enumerate((5, 30))
        ]

        def quote_scan_bytes(chunk_size):
            ctx, connector = self._rig(chunk_size=chunk_size)
            ctx.client.put_container("c")
            for index, body in enumerate(bodies):
                ctx.client.put_object("c", f"o{index}.csv", body)
            connector.discover_partitions("c", record_aligned=True)
            assert connector.metrics.totals() == (0, 0, 0, 0, 0)
            return connector.metrics.registry.counter_value(
                "connector.discovery_bytes", kind="quote_scan"
            )

        assert quote_scan_bytes(32) == sum(len(body) for body in bodies)
        assert quote_scan_bytes(max(len(body) for body in bodies)) == 0


class TestQuotedCsvEndToEnd:
    SCHEMA = Schema.of("name", "note", "code:int")

    def _rows(self):
        return [
            (f"n{i}", 'line one\nline "two", with comma', i)
            for i in range(60)
        ]

    def _csv(self):
        return "".join(
            f'"{name}","{note.replace(chr(34), chr(34) * 2)}",{code}\n'
            for name, note, code in self._rows()
        )

    @pytest.mark.parametrize("pushdown", [True, False])
    def test_rows_survive_any_chunking(self, pushdown):
        expected = None
        for chunk_size in (48, 111, 1 << 20):
            ctx = ScoopContext(chunk_size=chunk_size)
            ctx.upload_csv("c", "q.csv", self._csv())
            ctx.register_csv_table(
                "t", "c", schema=self.SCHEMA, pushdown=pushdown,
                format="csv",
            )
            rows = ctx.sql(
                "SELECT name, note, code FROM t ORDER BY code"
            ).collect()
            if expected is None:
                expected = rows
                assert len(rows) == 60
                assert rows[0][1] == 'line one\nline "two", with comma'
            else:
                assert rows == expected
