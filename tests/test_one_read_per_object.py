"""Discovery makes one request per object; a CSV split is exactly its
records.

Partition discovery (paper Section V-B) reads one sized listing, then
makes the one read each object's format needs: the suffix-range footer
GET of an RCF1 object, the planning GET of a record-aligned CSV object
larger than a chunk, a HEAD otherwise -- and nothing for an empty
object.  The catalog comes from that read's headers.  The planning GET
also says where records start, so every CSV split starts at one and
ends where the next split starts, and every read of a split -- plain or
pushdown -- asks for exactly those bytes, however long the record.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.connector import StocatorConnector
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


def _long_record_rows(note_len, tail_len):
    """The rows of :func:`_long_record_csv`, as sqlite3 reads them."""
    return [
        (100, "y" * note_len, "z" * tail_len) if i == 100 else (i, f"note{i}", f"tail{i}")
        for i in range(200)
    ]


def _context(data, pushdown, agg_pushdown=False):
    ctx = ScoopContext(chunk_size=4096)
    ctx.upload_csv("c", "t.csv", data)
    ctx.register_csv_table(
        "t", "c", schema=SCHEMA, pushdown=pushdown, format="csv", agg_pushdown=agg_pushdown
    )
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
        # Grid points inside the long record merge onto the record after
        # it: two splits, not one per chunk.
        assert [split.start for split in splits] == [0, data.index(b"101,")]
        for split, following in zip(splits, splits[1:]):
            # The terminator of its last record, right before the next.
            assert split.end + 1 == following.start
            assert data[split.end : split.end + 1] == b"\n"
        assert splits[-1].end == len(data) - 1

    def test_a_plain_scan_moves_only_the_bytes_its_records_need(self):
        data = _long_record_csv(3000, 9000)
        ctx = _context(data, pushdown=False)
        _frame, report = ctx.run_query("SELECT id FROM t")
        assert report.requests == 2
        assert report.bytes_transferred == len(data)

    #: Splits (and GETs) of each long-record object: grid points inside
    #: the long record merge onto the record after it.
    SPLITS = {(3000, 9000): 2, (20000, 5): 2, (3000, 100000): 3, (100000, 5): 3}

    @pytest.mark.parametrize("note_len, tail_len", list(SPLITS))
    def test_long_records_read_whole_on_both_paths(self, note_len, tail_len):
        """The truncation repros: while a plain read fetched a fixed
        8 KiB past its split, a longer record crossing the boundary came
        back cut (``length`` 7613, not 9000) or was dropped (199 rows,
        not 200) on the plain path; while the storlet read a fixed
        64 KiB past its range, a record longer than that did the same
        under pushdown (64 957, not 100 000).  A split per chunk grid
        point made 4, 6, 27 and 26 splits of these objects."""
        data = _long_record_csv(note_len, tail_len)
        answers = []
        for pushdown in (False, True):
            ctx = _context(data, pushdown)
            _frame, report = ctx.run_query("SELECT id FROM t WHERE id >= 0")
            assert report.requests == self.SPLITS[note_len, tail_len]
            assert (report.pushdown_requests > 0) == pushdown
            answers.append(
                (
                    ctx.sql(REPRO_SQL).collect(),
                    len(ctx.sql("SELECT id FROM t").collect()),
                )
            )
        assert answers[0] == answers[1]
        assert answers[0] == ([(99, 6), (100, tail_len), (101, 7)], 200)
        check_against_sqlite(
            REPRO_SQL, SCHEMA, _long_record_rows(note_len, tail_len), answers[0][0]
        )

    def test_a_long_record_aggregates_whole_under_group_by_pushdown(self):
        """The storlet's partial aggregation sees the long record too: at
        a fixed 64 KiB past the range it read ``(199, 19800)``."""
        sql = "SELECT count(*) AS n, sum(id) AS s FROM t"
        data = _long_record_csv(100000, 5)
        answers = [
            _context(data, pushdown, agg_pushdown).sql(sql).collect()
            for pushdown, agg_pushdown in ((False, False), (True, False), (True, True))
        ]
        assert answers == [[(200, 19900)]] * 3
        check_against_sqlite(sql, SCHEMA, _long_record_rows(100000, 5), answers[0])

    def test_unplanned_discovery_is_refused(self):
        ctx = _context("1,a,b\n", pushdown=False)
        with pytest.raises(ValueError):
            ctx.connector.discover_partitions("c", "", False)


class TestStorageSideReads:
    """A pushdown GET asks the store for the split's planned range, so
    the storlets read exactly the bytes the plain reads would move: the
    object, once."""

    def _storlet_bytes_in(self, ctx, sql):
        before = ctx.engine.total_bytes()[0]
        ctx.sql(sql).collect()
        return ctx.engine.total_bytes()[0] - before

    def test_a_csv_pushdown_scan_reads_the_planned_ranges(self):
        ctx = ScoopContext(chunk_size=256 * 1024, skipping=False)
        ctx.upload_csv(
            "c", "t.csv", "".join(f"{i},note-{i:07d},tail-{i % 97}\n" for i in range(60000))
        )
        ctx.register_csv_table("t", "c", schema=SCHEMA, pushdown=True, format="csv")
        splits = ctx.connector.discover_partitions("c", record_aligned=True)
        assert len(splits) == 7
        assert self._storlet_bytes_in(ctx, "SELECT id FROM t WHERE id < 10") == 1_602_700

    def test_an_rcf1_pushdown_scan_reads_no_byte_past_its_stripes(self):
        ctx = _rcf_context(3)
        ctx.register_columnar_table("t", "rcf", schema=RCF_SCHEMA, pushdown=True)
        columnar = ctx.connector.discover_columnar_partitions("rcf")
        extents = sum(item.split.length for item in columnar)
        # Both columns are read, so every stripe byte is needed.
        assert self._storlet_bytes_in(ctx, "SELECT vid, n FROM t WHERE n >= 0") == extents
        assert all(item.split.end + 1 == item.stripes[-1].end for item in columnar)


# --------------------------------------------------------------------------
# The differential: plain == filter pushdown == GROUP-BY pushdown == sqlite
# --------------------------------------------------------------------------

CHUNK = 4096

#: Planning chunk sizes: a "long" record outgrows the first two, a "huge"
#: one all three.
CHUNKS = [64, 512, CHUNK]


@st.composite
def _records(draw):
    """Rows and the CSV text that carries them, from 1 B to 3 chunks,
    some quoting a newline, LF or CRLF terminated; a bare line of the
    wrong width stands in for a short broken record, which every path
    drops, and the object may end in a record whose quote never
    closes."""
    rows, lines = [], []
    for ident in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(["short", "long", "huge", "broken"]))
        if kind == "broken":
            lines.append(draw(st.sampled_from(["x", "", "7"])))
            continue
        size = {
            "short": (0, 40),
            "long": (40, CHUNK),
            "huge": (2 * CHUNK, 3 * CHUNK - 64),
        }[kind]
        note_len = draw(st.integers(*size))
        note = draw(st.sampled_from("abyz")) * note_len
        tail = draw(st.sampled_from(["", "t", "tail"]))
        if draw(st.booleans()):
            note = note[: note_len // 2] + "\n,\"" + note[note_len // 2 :]
            text_note = '"' + note.replace('"', '""') + '"'
        else:
            text_note = note
        rows.append((ident, note or None, tail or None))  # "" reads as NULL
        lines.append(f"{ident},{text_note},{tail}")
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    text = terminator.join(lines) + draw(st.sampled_from(["", terminator]))
    if draw(st.booleans()):
        # The quote opening the last field never closes: the field runs
        # to the object's end, newlines and all.
        ident = len(rows) + 100
        open_tail = draw(st.text(alphabet=st.sampled_from(list("ab,\n")), max_size=80))
        if text and not text.endswith("\n"):
            text += terminator
        text += f'{ident},n,"{open_tail}'
        rows.append((ident, "n", open_tail or None))
    return rows, text


FILTER_SQL = "SELECT id, length(note) AS n, note, tail FROM t WHERE id >= 1"
GROUP_SQL = (
    "SELECT tail, count(*) AS c, sum(id) AS s, max(length(note)) AS m "
    "FROM t WHERE id >= 1 GROUP BY tail"
)


def _sql_answers(data, parallelism, chunk_size):
    """The answers of both queries read plainly, then with filter and
    GROUP-BY pushdown."""
    answers = []
    for pushdown in (False, True):
        ctx = ScoopContext(chunk_size=chunk_size, parallelism=parallelism, skipping=False)
        ctx.upload_csv("c", "t.csv", data)
        ctx.register_csv_table(
            "t", "c", schema=SCHEMA, pushdown=pushdown, format="csv", agg_pushdown=pushdown
        )
        answers.append([ctx.sql(FILTER_SQL).collect(), ctx.sql(GROUP_SQL).collect()])
        assert ctx.explain_profile()["sql"]["queries"] == (
            {"batch": 1, "agg_pushdown": 1} if pushdown else {"batch": 2}
        )
    return answers


@pytest.mark.parametrize("parallelism", [1, 8])
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_plain_equals_pushdown_equals_sqlite(parallelism, data):
    rows, text = data.draw(_records())
    chunk_size = data.draw(st.sampled_from(CHUNKS))
    (plain, plain_groups), (pushed, pushed_groups) = _sql_answers(text, parallelism, chunk_size)
    assert sorted(plain) == sorted(pushed)
    check_against_sqlite(FILTER_SQL, SCHEMA, rows, plain)
    check_against_sqlite(GROUP_SQL, SCHEMA, rows, plain_groups)
    check_against_sqlite(GROUP_SQL, SCHEMA, rows, pushed_groups)
