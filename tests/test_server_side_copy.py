"""Server-side copy (``PUT`` + ``X-Copy-From``) and in-store conversion.

``convert_csv_to_columnar`` used to pull every object to the client and
re-PUT it; it now asks the store to copy each object through the target
container's ``csv2columnar`` PUT policy.  These tests pin the copy
contract (status codes, metadata, nothing written on a failed source
read), what crosses the link, and that the stored RCF1 objects are the
ones pull-and-re-PUT produced -- under fault plans too.
"""

import pytest

from repro.catalog.metadata import CATALOG_HEADER
from repro.columnar import decode_footer
from repro.core import ScoopContext
from repro.faults import named_plan
from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset
from repro.sql.types import Schema
from repro.storlets.columnar_storlet import CsvToColumnarStorlet
from repro.storlets.engine import StorletPolicy
from repro.swift.client import SwiftClient
from repro.swift.exceptions import BadRequest, NotFound
from repro.swift.proxy import SwiftCluster
from repro.swift.retry import RetryPolicy

SPEC = DatasetSpec(meters=12, intervals=64, objects=3)


@pytest.fixture
def client():
    client = SwiftClient(SwiftCluster(), "AUTH_copy")
    client.put_container("src")
    client.put_container("dst")
    client.put_object(
        "src",
        "a.csv",
        b"k,1\n" * 40_000,  # several 64 KiB chunks
        headers={"x-object-meta-color": "red"},
        content_type="text/csv",
    )
    return client


class TestCopyContract:
    def test_copy_stores_the_source_bytes_and_metadata(self, client):
        source_headers, source = client.get_object("src", "a.csv")
        etag = client.copy_object("src", "a.csv", "dst", "b.csv")
        headers, data = client.get_object("dst", "b.csv")
        assert data == source and etag == source_headers["etag"]
        assert headers["x-object-meta-color"] == "red"
        assert headers["content-type"] == "text/csv"
        assert client.list_objects("dst") == ["b.csv"]

    def test_request_headers_win_and_fresh_metadata_drops_the_rest(self, client):
        client.copy_object(
            "src", "a.csv", "dst", "b.csv",
            headers={"x-object-meta-size": "xl", "content-type": "text/plain"},
            fresh_metadata=True,
        )
        headers = client.head_object("dst", "b.csv")
        assert headers["x-object-meta-size"] == "xl"
        assert headers["content-type"] == "text/plain"
        assert "x-object-meta-color" not in headers

    def test_leading_slash_form_and_copied_from_header(self, client):
        response = client.request(
            "PUT", "/AUTH_copy/dst/b.csv", {"x-copy-from": "/src/a.csv"}
        )
        assert response.status == 201
        assert response.headers["x-copied-from"] == "src/a.csv"

    def test_missing_source_is_404_and_nothing_is_written(self, client):
        stored = client.cluster.total_object_count()
        with pytest.raises(NotFound):
            client.copy_object("src", "nope.csv", "dst", "b.csv")
        with pytest.raises(NotFound):
            client.copy_object("nowhere", "a.csv", "dst", "b.csv")
        assert client.list_objects("dst") == []
        assert client.cluster.total_object_count() == stored

    @pytest.mark.parametrize("source", ["", "/", "src", "src/", "/a.csv"])
    def test_malformed_source_is_400(self, client, source):
        with pytest.raises(BadRequest):
            client._checked(
                client.request(
                    "PUT", "/AUTH_copy/dst/b.csv", {"x-copy-from": source}
                )
            )
        assert client.list_objects("dst") == []

    def test_copy_from_on_other_methods_is_ignored(self, client):
        response = client.request(
            "GET", "/AUTH_copy/src/a.csv", {"x-copy-from": "src/a.csv"}
        )
        assert response.status == 200


def _link_log(ctx):
    """Record ``(method, path, request body bytes, response body bytes)``
    of everything the context's client sends from now on."""
    log = []
    handle = ctx.cluster.handle_request

    def recording(request):
        sent = len(request.body or b"")
        response = handle(request)
        received = (
            len(response.body) if isinstance(response.body, bytes) else None
        )
        log.append((request.method, request.path, sent, received))
        return response

    ctx.cluster.handle_request = recording
    return log


def _stored(ctx, container):
    """``{name: (bytes, catalog header, columnar headers)}``."""
    result = {}
    for name in ctx.client.list_objects(container):
        headers, data = ctx.client.get_object(container, name)
        result[name] = (
            data,
            headers.get(CATALOG_HEADER),
            sorted(
                (key, value)
                for key, value in headers.items()
                if key.startswith("x-object-meta-columnar-")
            ),
        )
    return result


def _pull_and_re_put(ctx, source, target, chunk_size):
    """What ``convert_csv_to_columnar`` did before the in-store copy."""
    ctx.client.put_container(target)
    ctx.engine.set_policy(
        ctx.client.account,
        target,
        StorletPolicy(
            storlet=CsvToColumnarStorlet.name,
            method="PUT",
            parameters={
                "schema": METER_SCHEMA.to_header(),
                "has_header": "false",
                "stripe_bytes": str(chunk_size),
            },
        ),
    )
    for name in ctx.client.list_objects(source):
        _headers, data = ctx.client.get_object(source, name)
        ctx.client.put_object(target, name.rsplit(".", 1)[0] + ".rcf", data)


class TestConversionStaysInTheStore:
    CHUNK = 48 * 1024

    def test_one_request_and_no_body_per_converted_object(self):
        ctx = ScoopContext(chunk_size=self.CHUNK)
        sizes = upload_dataset(ctx.client, "meters", SPEC)
        log = _link_log(ctx)
        before = ctx.client.stats.requests
        written = ctx.convert_csv_to_columnar("meters", "rcf", METER_SCHEMA)
        assert len(written) == len(sizes) == 3
        # Container PUT + source listing + one copy per object + the
        # target listing that looks for orphans, nothing else.
        assert ctx.client.stats.requests - before == 3 + len(sizes)
        copies = [entry for entry in log if entry[1].startswith("/AUTH_scoop/rcf/")]
        assert [(method, sent) for method, _p, sent, _r in copies] == [("PUT", 0)] * 3
        # No object body in either direction: only the listing's names.
        assert sum(sent for _m, _p, sent, _r in log) == 0
        assert sum(received for _m, _p, _s, received in log) < 100
        for name in written:
            _headers, data = ctx.client.get_object("rcf", name)
            assert decode_footer(data).rows == SPEC.total_rows() // 3

    def test_matches_pull_and_re_put_byte_for_byte(self):
        ctx = ScoopContext(chunk_size=self.CHUNK)
        upload_dataset(ctx.client, "meters", SPEC)
        ctx.convert_csv_to_columnar("meters", "rcf", METER_SCHEMA)
        _pull_and_re_put(ctx, "meters", "rcf-pulled", self.CHUNK)
        assert _stored(ctx, "rcf") == _stored(ctx, "rcf-pulled")

    @pytest.mark.parametrize("plan_name", ["flaky-object", "device-loss"])
    def test_converges_to_the_same_objects_under_faults(self, plan_name):
        healthy = ScoopContext(chunk_size=self.CHUNK)
        upload_dataset(healthy.client, "meters", SPEC)
        _pull_and_re_put(healthy, "meters", "rcf", self.CHUNK)

        faulty = ScoopContext(
            chunk_size=self.CHUNK,
            retry_policy=RetryPolicy(seed=7),
            fault_plan=named_plan(plan_name, seed=7),
        )
        upload_dataset(faulty.client, "meters", SPEC)
        # Twice: the second round overwrites under a plan that has
        # already lost devices / spent its one-shot faults differently.
        for _round in range(2):
            faulty.convert_csv_to_columnar("meters", "rcf", METER_SCHEMA)
        assert faulty.fault_plan.fired() > 0
        assert faulty.client.stats.exhausted == 0
        assert _stored(faulty, "rcf") == _stored(healthy, "rcf")

    def test_source_metadata_never_lands_on_the_rcf1_object(self):
        """A source carries its own catalog and ETL counters (a stale
        catalog here); the copy asks for fresh metadata, so the RCF1
        object has only what its own storlet computed."""
        schema = Schema.of("vid", "index:float")
        ctx = ScoopContext()
        ctx.client.put_container("raw")
        ctx.client.put_object(
            "raw",
            "a.csv",
            b"m1,1.5\nm2,2.5\n",
            headers={CATALOG_HEADER: "stale", "x-object-meta-etl-kept": "2"},
        )
        source = ctx.client.head_object("raw", "a.csv")
        assert source["x-object-meta-etl-kept"] == "2"
        (name,) = ctx.convert_csv_to_columnar("raw", "rcf", schema)
        headers = ctx.client.head_object("rcf", name)
        assert not [key for key in headers if "etl" in key]
        assert headers[CATALOG_HEADER].startswith('{"v":2,"rows":2,')
        assert headers["x-object-meta-columnar-rows"] == "2"
        assert headers["content-type"] == "application/octet-stream"


class TestShadowFollowsItsSource:
    """``register_csv_table(format="columnar")`` re-converts into the
    ``--columnar`` shadow; the shadow must not outlive its sources."""

    SCHEMA = Schema.of("k", "v:int")

    def _count(self, ctx, fmt):
        ctx.register_csv_table("t", "c", schema=self.SCHEMA, format=fmt)
        return ctx.sql("SELECT count(*) AS n FROM t").collect()

    def test_deleted_source_takes_its_shadow_rows_along(self):
        ctx = ScoopContext()
        ctx.upload_csv("c", "x.csv", "a,1\nb,2\n")
        ctx.upload_csv("c", "y.csv", "c,3\n")
        assert self._count(ctx, "columnar") == [(3,)]
        ctx.client.delete_object("c", "y.csv")
        assert self._count(ctx, "columnar") == [(2,)]
        assert self._count(ctx, "csv") == [(2,)]
        assert ctx.client.list_objects("c--columnar") == ["x.rcf"]

    def test_prune_stays_under_the_prefix_and_off_other_objects(self):
        ctx = ScoopContext()
        for name in ("in/a.csv", "in/b.csv", "out/c.csv"):
            ctx.upload_csv("c", name, "a,1\n")
        ctx.convert_csv_to_columnar("c", "rcf", self.SCHEMA)
        ctx.client.put_object("rcf", "in/notes.txt", b"k,1\n")
        ctx.client.delete_object("c", "in/b.csv")
        ctx.client.delete_object("c", "out/c.csv")
        assert ctx.convert_csv_to_columnar("c", "rcf", self.SCHEMA, prefix="in/") == [
            "in/a.rcf"
        ]
        # in/b.rcf lost its source; out/c.rcf did too, but is not under
        # the prefix this conversion was asked about.
        assert ctx.client.list_objects("rcf") == [
            "in/a.rcf", "in/notes.txt", "out/c.rcf",
        ]

    def test_each_rcf1_object_names_its_source_and_etag(self):
        ctx = ScoopContext()
        etag = ctx.upload_csv("c", "x.csv", "a,1\nb,2\n")
        (name,) = ctx.convert_csv_to_columnar("c", "rcf", self.SCHEMA)
        headers = ctx.client.head_object("rcf", name)
        assert headers["x-object-meta-copied-from"] == "c/x.csv"
        assert headers["x-object-meta-copied-from-etag"] == etag
