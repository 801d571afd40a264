"""Tests for the HTTP substrate: headers, paths, ranges, bodies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.swift.exceptions import BadRequest
from repro.swift.http import (
    HeaderDict,
    Request,
    Response,
    chunk_bytes,
    collect_body,
    parse_path,
    parse_range,
)


class TestHeaderDict:
    def test_case_insensitive_get(self):
        headers = HeaderDict({"Content-Type": "text/csv"})
        assert headers["content-type"] == "text/csv"
        assert headers["CONTENT-TYPE"] == "text/csv"

    def test_case_insensitive_contains(self):
        headers = HeaderDict({"X-Auth-Token": "t"})
        assert "x-auth-token" in headers
        assert "X-AUTH-TOKEN" in headers

    def test_values_coerced_to_strings(self):
        headers = HeaderDict()
        headers["content-length"] = 42
        assert headers["content-length"] == "42"

    def test_kwargs_constructor_maps_underscores(self):
        headers = HeaderDict(x_auth_token="t")
        assert headers["x-auth-token"] == "t"

    def test_items_and_kwargs_normalize_to_the_same_slot(self):
        # Regression: the items path and the kwargs path must fold
        # underscores identically -- one logical header, one slot,
        # last write wins.
        headers = HeaderDict(items={"x_foo": "a"}, x_foo="b")
        assert len(headers) == 1
        assert headers["x-foo"] == "b"
        assert headers["X_FOO"] == "b"

    def test_underscore_lookup_matches_dash_insert(self):
        headers = HeaderDict({"x-storlet-run": "1"})
        assert headers["x_storlet_run"] == "1"
        assert "X_Storlet_Run" in headers
        headers.update({"x_storlet_run": "2"})
        assert len(headers) == 1
        assert headers["x-storlet-run"] == "2"

    def test_setdefault_and_pop_fold_underscores(self):
        headers = HeaderDict()
        headers.setdefault("x_a", "1")
        assert headers.setdefault("x-a", "2") == "1"
        assert headers.pop("X_A") == "1"
        assert not headers

    def test_storlet_parameter_names_round_trip(self):
        # Underscore parameter names survive the wire's dash folding:
        # set_parameters writes them as headers, parameters_from
        # restores the canonical underscore spelling.
        from repro.storlets.engine import StorletRequestHeaders

        headers = HeaderDict()
        parameters = {"has_header": "true", "max_rows": "10"}
        StorletRequestHeaders.set_parameters(headers, parameters)
        assert StorletRequestHeaders.parameters_from(headers) == parameters

    def test_update_and_copy_are_independent(self):
        original = HeaderDict({"a": "1"})
        clone = original.copy()
        clone["a"] = "2"
        assert original["a"] == "1"

    def test_a_copy_of_a_header_dict_is_taken_as_it_is_and_still_normalises(self, monkeypatch):
        source = HeaderDict({"X_Storlet-Run": 1, "Content-Length": 42})
        # A HeaderDict is already normal, key and value: copying one
        # writes no slot through the normalising ``__setitem__``.
        writes = []
        setitem = HeaderDict.__setitem__
        monkeypatch.setattr(
            HeaderDict,
            "__setitem__",
            lambda self, key, value: writes.append(key) or setitem(self, key, value),
        )
        copies = [HeaderDict(source), source.copy(), HeaderDict(a="b")]
        copies[2].update(source, x_extra=7)
        assert writes == ["a", "x_extra"]
        for clone in copies[:2]:
            assert type(clone) is HeaderDict and clone == source and clone is not source
            assert dict(clone) == {"x-storlet-run": "1", "content-length": "42"}
        assert dict(copies[2]) == {**source, "a": "b", "x-extra": "7"}
        # What is written afterwards still lands in the normalised slot.
        for clone in copies:
            clone["X_STORLET_RUN"] = 2
            clone.update({"Content_Length": 0})
            assert clone["x-storlet-run"] == "2" and clone["content-length"] == "0"
            assert len(clone) == len(set(clone)) and "X_Storlet_Run" in clone
        assert dict(source) == {"x-storlet-run": "1", "content-length": "42"}

    def test_pop_with_default(self):
        headers = HeaderDict({"a": "1"})
        assert headers.pop("A") == "1"
        assert headers.pop("missing", "dflt") == "dflt"

    def test_delete(self):
        headers = HeaderDict({"A": "1"})
        del headers["a"]
        assert "a" not in headers


class TestParsePath:
    def test_full_path(self):
        assert parse_path("/acct/cont/obj") == ("acct", "cont", "obj")

    def test_object_names_may_contain_slashes(self):
        assert parse_path("/a/c/dir/sub/o.csv") == ("a", "c", "dir/sub/o.csv")

    def test_container_only(self):
        assert parse_path("/a/c") == ("a", "c", None)

    def test_account_only(self):
        assert parse_path("/a") == ("a", None, None)

    def test_missing_leading_slash_raises(self):
        with pytest.raises(BadRequest):
            parse_path("a/c/o")

    def test_empty_account_raises(self):
        with pytest.raises(BadRequest):
            parse_path("/")


class TestParseRange:
    def test_simple_range(self):
        assert parse_range("bytes=0-9", 100) == (0, 9)

    def test_open_ended_range(self):
        assert parse_range("bytes=90-", 100) == (90, 99)

    def test_end_clamped_to_size(self):
        assert parse_range("bytes=10-5000", 100) == (10, 99)

    def test_suffix_range(self):
        assert parse_range("bytes=-10", 100) == (90, 99)

    def test_suffix_larger_than_object(self):
        assert parse_range("bytes=-500", 100) == (0, 99)

    def test_suffix_zero_is_unsatisfiable(self):
        # RFC 7233: a zero-length suffix matches no bytes; the resolved
        # offsets place start past the object so the backend answers 416.
        start, end = parse_range("bytes=-0", 100)
        assert start >= 100
        assert start > end

    def test_end_before_start_is_ignored(self):
        # RFC 7233 2.1: last-byte-pos < first-byte-pos makes the
        # byte-range-spec syntactically invalid -> the header is ignored
        # (None), NOT a 416.
        assert parse_range("bytes=10-5", 100) is None

    def test_any_range_on_zero_byte_object_is_unsatisfiable(self):
        # There is no byte to serve, so every well-formed range must
        # resolve to offsets the backend maps to 416 (start >= size or
        # start > end), never to a zero-length "valid" slice.
        size = 0
        for header in ("bytes=0-0", "bytes=0-", "bytes=-1", "bytes=-0"):
            resolved = parse_range(header, size)
            assert resolved is not None, header
            start, end = resolved
            unsatisfiable = start >= size or start > end
            assert unsatisfiable, header

    def test_malformed_raises(self):
        for bad in ("bytes=", "0-9", "bytes=a-b", "bytes=5"):
            with pytest.raises(BadRequest):
                parse_range(bad, 100)

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=1000),
        end=st.integers(min_value=0, max_value=2000),
        size=st.integers(min_value=1, max_value=1500),
    )
    def test_valid_ranges_stay_within_object(self, start, end, size):
        resolved = parse_range(f"bytes={start}-{end}", size)
        if end < start:
            # Syntactically invalid spec: header ignored per RFC 7233.
            assert resolved is None
            return
        result_start, result_end = resolved
        assert result_start == start
        assert result_end <= size - 1


class TestBodies:
    def test_collect_none(self):
        assert collect_body(None) == b""

    def test_collect_bytes_identity(self):
        assert collect_body(b"abc") == b"abc"

    def test_collect_iterator(self):
        assert collect_body(iter([b"a", b"b", b"c"])) == b"abc"

    def test_chunk_bytes_roundtrip(self):
        data = bytes(range(256)) * 10
        assert b"".join(chunk_bytes(data, 100)) == data

    def test_chunk_sizes(self):
        chunks = list(chunk_bytes(b"x" * 250, 100))
        assert [len(c) for c in chunks] == [100, 100, 50]

    def test_response_read_caches(self):
        response = Response(200, body=iter([b"a", b"b"]))
        assert response.read() == b"ab"
        assert response.read() == b"ab"  # second read must not drain again

    def test_response_iter_body_streams_bytes(self):
        response = Response(200, body=b"x" * 130)
        chunks = list(response.iter_body(chunk_size=50))
        assert [len(c) for c in chunks] == [50, 50, 30]

    def test_request_body_bytes_materializes(self):
        request = Request("PUT", "/a/c/o", body=iter([b"1", b"2"]))
        assert request.body_bytes() == b"12"
        assert request.body == b"12"

    def test_request_copy_isolates_headers(self):
        request = Request("GET", "/a/c/o", {"x": "1"})
        clone = request.copy()
        clone.headers["x"] = "2"
        assert request.headers["x"] == "1"

    def test_response_ok_and_reason(self):
        assert Response(204).ok
        assert not Response(404).ok
        assert Response(404).reason == "Not Found"
