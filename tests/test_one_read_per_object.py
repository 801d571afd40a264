"""Discovery makes one request per object; plain split reads stop at the
record end.

Partition discovery (paper Section V-B) reads one sized listing, then
makes the one read each object's format needs: the suffix-range footer
GET of an RCF1 object, the planning GET of a record-aligned CSV object
larger than a chunk, a HEAD otherwise -- and nothing for an empty
object.  The catalog comes from that read's headers.  The planning GET
also says where each split's last owned record ends, so a plain read
asks for exactly those bytes, however long the record; a split planned
without it reads on in further ranged GETs while its reader pulls.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.connector import StocatorConnector
from repro.connector.stocator import RANGE_LOOKAHEAD
from repro.core.scoop import ScoopContext
from repro.sql.types import Schema
from repro.swift import SwiftClient, SwiftCluster
from tests.sqlite_oracle import check_against_sqlite

SCHEMA = Schema.of("id:int", "note", "tail")
RCF_SCHEMA = Schema.of("vid", "n:int")
REPRO_SQL = "SELECT id, length(tail) AS n FROM t WHERE id >= 99 AND id <= 101"


def _long_record_csv(note_len, tail_len):
    """200 short records; record 100 carries a long note and tail."""
    return "".join(
        f"100,{'y' * note_len},{'z' * tail_len}\n"
        if i == 100
        else f"{i},note{i},tail{i}\n"
        for i in range(200)
    )


def _context(data, pushdown):
    ctx = ScoopContext(chunk_size=4096)
    ctx.upload_csv("c", "t.csv", data)
    ctx.register_csv_table("t", "c", schema=SCHEMA, pushdown=pushdown, format="csv")
    return ctx


def _discovery_requests(registry):
    return {
        labels["kind"]: count
        for labels, count in registry.counter_series("connector.discovery_requests")
    }


def _rcf_context(objects, skipping=False):
    """``objects`` RCF1 objects of 50 rows each in container ``rcf``."""
    ctx = ScoopContext(chunk_size=4096, skipping=skipping)
    for index in range(objects):
        ctx.upload_csv(
            "src",
            f"part-{index}.csv",
            "".join(f"v{index}-{i},{index * 1000 + i}\n" for i in range(50)),
        )
    ctx.convert_csv_to_columnar("src", "rcf", RCF_SCHEMA)
    return ctx


class TestSizedListing:
    def test_listing_carries_name_size_and_etag(self):
        client = SwiftClient(SwiftCluster(storage_node_count=2, disks_per_node=1))
        client.put_container("c")
        etags = {
            name: client.put_object("c", name, body)
            for name, body in (("b", b"xyz"), ("a", b""), ("c/1", b"12345"))
        }
        assert client.list_objects_sized("c") == [
            {"name": "a", "bytes": 0, "hash": etags["a"]},
            {"name": "b", "bytes": 3, "hash": etags["b"]},
            {"name": "c/1", "bytes": 5, "hash": etags["c/1"]},
        ]
        assert client.list_objects_sized("c", prefix="c/") == [
            {"name": "c/1", "bytes": 5, "hash": etags["c/1"]}
        ]
        # The names-only listing is unchanged.
        assert client.list_objects("c") == ["a", "b", "c/1"]


class TestRegistrationRequests:
    """Registering a table costs the listing plus one request per object
    with bytes."""

    def _registered(self, ctx, register):
        before = ctx.client.stats.requests
        kinds = _discovery_requests(ctx.registry)
        register()
        after = _discovery_requests(ctx.registry)
        return ctx.client.stats.requests - before, {
            kind: count - kinds.get(kind, 0)
            for kind, count in after.items()
            if count != kinds.get(kind, 0)
        }

    def test_rcf1_table_costs_one_footer_read_per_object(self):
        ctx = _rcf_context(4)
        requests, kinds = self._registered(
            ctx, lambda: ctx.register_columnar_table("t", "rcf", schema=RCF_SCHEMA)
        )
        assert requests == 4 + 1
        assert kinds == {"listing": 1, "footer": 4}
        assert len(ctx.sql("SELECT vid FROM t").collect()) == 200

    def test_a_footer_outgrowing_the_probe_costs_one_more_read(self):
        ctx = _rcf_context(3)
        # One stripe per row: this object's footer outgrows the probe.
        ctx.upload_csv("src", "wide.csv", "".join(f"w{i},{i}\n" for i in range(400)))
        ctx.convert_csv_to_columnar(
            "src", "rcf", RCF_SCHEMA, prefix="wide", stripe_rows=1
        )
        footer, size, _headers = ctx.connector.read_columnar_footer("rcf", "wide.rcf")
        assert len(footer.stripes) == 400
        assert size > StocatorConnector.FOOTER_PROBE_BYTES
        requests, kinds = self._registered(
            ctx, lambda: ctx.register_columnar_table("t", "rcf", schema=RCF_SCHEMA)
        )
        assert requests == 4 + 2
        assert kinds == {"listing": 1, "footer": 5}
        assert len(ctx.sql("SELECT vid FROM t").collect()) == 550

    def test_record_aligned_csv_table_costs_one_planning_read_per_object(self):
        ctx = ScoopContext(chunk_size=256)
        for index in range(3):
            ctx.upload_csv("c", f"{index}.csv", "".join(f"{i},n{i},t{i}\n" for i in range(100)))
        requests, kinds = self._registered(
            ctx, lambda: ctx.register_csv_table("t", "c", schema=SCHEMA, format="csv")
        )
        assert requests == 3 + 1
        assert kinds == {"listing": 1, "plan": 3}

    def test_one_chunk_csv_objects_cost_one_head_each(self):
        ctx = ScoopContext(chunk_size=1 << 20)
        for index in range(3):
            ctx.upload_csv("c", f"{index}.csv", "1,a,b\n")
        requests, kinds = self._registered(
            ctx, lambda: ctx.register_csv_table("t", "c", schema=SCHEMA, format="csv")
        )
        assert requests == 3 + 1
        assert kinds == {"listing": 1, "head": 3}

    def test_zero_length_objects_cost_no_request(self):
        ctx = _rcf_context(2)
        ctx.engine.clear_policies(ctx.client.account, "rcf")
        for name in ("empty-a.rcf", "empty-b.rcf"):
            ctx.client.put_object("rcf", name, b"")
        requests, kinds = self._registered(
            ctx, lambda: ctx.register_columnar_table("t", "rcf", schema=RCF_SCHEMA)
        )
        assert requests == 2 + 1
        assert kinds == {"listing": 1, "footer": 2}
        assert ctx.connector.skipped_objects == [
            ("rcf", "empty-a.rcf", "zero-length"),
            ("rcf", "empty-b.rcf", "zero-length"),
        ]
        assert ctx.registry.counter_value("connector.objects_skipped", reason="zero-length") == 2

    def test_the_catalog_rides_the_one_read(self):
        """The footer read's headers arm the catalog: a refuted query
        skips every object with zero GETs, and the armed registration
        cost no more than the disarmed one."""
        costs = []
        for skipping in (False, True):
            ctx = _rcf_context(4, skipping=skipping)
            requests, _kinds = self._registered(
                ctx, lambda: ctx.register_columnar_table("t", "rcf", schema=RCF_SCHEMA)
            )
            costs.append(requests)
            cached = ctx.connector._catalog_cache
            assert sorted(cached) == [("rcf", f"part-{i}.rcf") for i in range(4)]
            assert all(entry is not None for entry in cached.values())
            _frame, report = ctx.run_query("SELECT vid FROM t WHERE n > 99999")
            assert report.requests == 0
            assert report.objects_skipped == (4 if skipping else 0)
        assert costs[0] == costs[1]


class TestExactReadEnds:
    def test_planned_splits_end_at_their_last_record(self):
        ctx = _context(_long_record_csv(3000, 9000), pushdown=False)
        data = ctx.client.get_object("c", "t.csv")[1]
        splits = ctx.connector.discover_partitions("c", record_aligned=True)
        assert len(splits) > 2
        owning_nothing = 0
        for split, following in zip(splits, splits[1:]):
            if data.find(b"\n", split.start, following.start) < 0:
                # Inside the long record: the split's own range shows it
                # owns no record.
                assert split.read_end == split.end
                owning_nothing += 1
                continue
            # The terminator of the record crossing the next start.
            assert split.read_end == data.index(b"\n", following.start)
        assert owning_nothing == 2
        assert splits[-1].read_end == len(data) - 1

    def test_a_plain_scan_moves_only_the_bytes_its_records_need(self):
        ctx = _context(_long_record_csv(3000, 9000), pushdown=False)
        splits = ctx.connector.discover_partitions("c", record_aligned=True)
        _frame, report = ctx.run_query("SELECT id FROM t")
        assert report.requests == len(splits)
        assert report.bytes_transferred == sum(
            split.read_end - split.start + 1 for split in splits
        )

    @pytest.mark.parametrize("note_len, tail_len", [(3000, 9000), (20000, 5)])
    def test_long_records_read_whole_on_both_paths(self, note_len, tail_len):
        """The two truncation repros: while a plain read fetched a fixed
        8 KiB past its split, a longer record crossing the boundary came
        back cut (``length`` 7613, not 9000) or was dropped (199 rows,
        not 200) on the plain path only."""
        data = _long_record_csv(note_len, tail_len)
        answers = []
        for pushdown in (False, True):
            ctx = _context(data, pushdown)
            answers.append(
                (
                    ctx.sql(REPRO_SQL).collect(),
                    len(ctx.sql("SELECT id FROM t").collect()),
                )
            )
        assert answers[0] == answers[1]
        assert answers[0] == ([(99, 6), (100, tail_len), (101, 7)], 200)


class TestReadingOn:
    """A split planned without a scan reads ``RANGE_LOOKAHEAD`` bytes
    past its end, then further ranged GETs of that size while its reader
    still pulls."""

    def _rig(self, data, chunk_size):
        client = SwiftClient(SwiftCluster(storage_node_count=2, disks_per_node=1))
        client.put_container("c")
        client.put_object("c", "t.csv", data)
        connector = StocatorConnector(client, chunk_size=chunk_size)
        return connector, connector.discover_partitions("c")

    def _records(self, connector, splits):
        return [
            record for split in splits for record in connector.read_split_records(split)
        ]

    def test_short_records_cost_one_request_per_split(self):
        data = "".join(f"{i},n{i},t{i}\n" for i in range(400)).encode()
        connector, splits = self._rig(data, 512)
        assert all(split.read_end is None for split in splits)
        assert self._records(connector, splits) == data.rstrip(b"\n").split(b"\n")
        assert connector.metrics.requests == len(splits)

    def test_a_long_record_is_read_whole_with_more_ranged_gets(self):
        long = b"100," + b"y" * (3 * RANGE_LOOKAHEAD) + b",z"
        lines = [f"{i},n{i},t{i}".encode() for i in range(200)]
        lines[100] = long
        data = b"\n".join(lines) + b"\n"
        connector, splits = self._rig(data, 1024)
        records = self._records(connector, splits)
        assert records == lines
        # Only the split owning the long record reads on, one window at
        # a time up to its terminator; the splits inside it see their
        # first record outrun their range and stop there.
        start = data.index(long)
        owner = next(s for s in splits if s.start < start <= s.start + s.length)
        short = start + len(long) - (owner.end + RANGE_LOOKAHEAD)
        extra = -(-short // RANGE_LOOKAHEAD)
        assert extra >= 2
        assert connector.metrics.requests == len(splits) + extra

    def test_a_reader_that_stops_pulling_stops_the_gets(self):
        long = b"0," + b"y" * (4 * RANGE_LOOKAHEAD) + b",z\n"
        connector, splits = self._rig(long + b"1,a,b\n", 64)
        _headers, chunks = connector.open_split_stream(splits[0])
        next(iter(chunks))
        chunks.close()
        assert connector.metrics.requests == 1

    def test_an_unplanned_stream_ends_with_the_object(self):
        data = b"0,a,b\n1," + b"y" * RANGE_LOOKAHEAD
        connector, splits = self._rig(data, 16)
        assert self._records(connector, splits) == [b"0,a,b", b"1," + b"y" * RANGE_LOOKAHEAD]


# --------------------------------------------------------------------------
# The differential: plain == pushdown == sqlite, both discovery modes
# --------------------------------------------------------------------------

CHUNK = 4096


@st.composite
def _records(draw, quoted):
    """Rows and the CSV lines that carry them, from 1 B to 3 chunks; a
    bare line of the wrong width stands in for a short broken record,
    which every path drops."""
    rows, lines = [], []
    for ident in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["short", "long", "huge", "broken"]))
        if kind == "broken":
            lines.append(draw(st.sampled_from(["x", "", "7"])))
            continue
        size = {
            "short": (0, 40),
            "long": (40, CHUNK),
            "huge": (RANGE_LOOKAHEAD, 3 * CHUNK - 64),
        }[kind]
        note_len = draw(st.integers(*size))
        note = draw(st.sampled_from("abyz")) * note_len
        tail = draw(st.sampled_from(["", "t", "tail"]))
        if quoted and draw(st.booleans()):
            note = note[: note_len // 2] + "\n,\"" + note[note_len // 2 :]
            text_note = '"' + note.replace('"', '""') + '"'
        else:
            text_note = note
        rows.append((ident, note or None, tail or None))  # "" reads as NULL
        lines.append(f"{ident},{text_note},{tail}")
    return rows, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _sql_answers(data, aligned, parallelism, sql):
    """The answer of ``sql`` read plainly and with pushdown, over splits
    discovered with or without the record-aligned planning scan."""
    answers = []
    for pushdown in (False, True):
        ctx = ScoopContext(chunk_size=CHUNK, parallelism=parallelism, skipping=False)
        ctx.upload_csv("c", "t.csv", data)
        discover = ctx.connector.discover_partitions
        ctx.connector.discover_partitions = (
            lambda container, prefix="", record_aligned=True: discover(
                container, prefix, record_aligned=aligned
            )
        )
        ctx.register_csv_table("t", "c", schema=SCHEMA, pushdown=pushdown, format="csv")
        answers.append(ctx.sql(sql).collect())
    return answers


@pytest.mark.parametrize("parallelism", [1, 8])
@pytest.mark.parametrize("aligned", [True, False])
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_plain_equals_pushdown_equals_sqlite(aligned, parallelism, data):
    # A quoted newline only frames from a record-aligned start.
    rows, text = data.draw(_records(quoted=aligned))
    sql = "SELECT id, length(note) AS n, note, tail FROM t WHERE id >= 1"
    plain, pushed = _sql_answers(text, aligned, parallelism, sql)
    assert sorted(plain) == sorted(pushed)
    check_against_sqlite(sql, SCHEMA, rows, plain)
