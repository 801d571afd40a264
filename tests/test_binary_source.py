"""Tests for the binary-object metadata path (Section VII)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.spark.binary_source import BinaryMetadataRelation
from repro.sql import Schema
from repro.storlets import StorletException
from repro.storlets.metadata_storlet import (
    MetadataExtractorStorlet,
    decode_tags,
    encode_image,
)
from tests.storlet_harness import run_storlet

TAGS = {"camera": "NikonD500", "iso": "400", "width": "4000", "height": "3000"}


class TestImageFormat:
    def test_round_trip(self):
        data = encode_image(TAGS, payload=b"\xff" * 1000)
        tags, offset = decode_tags(data)
        assert tags == TAGS
        assert data[offset:] == b"\xff" * 1000

    def test_payload_size_constructor(self):
        data = encode_image({"a": "1"}, payload_size=5000)
        _tags, offset = decode_tags(data)
        assert len(data) - offset == 5000

    def test_empty_tags(self):
        tags, _offset = decode_tags(encode_image({}))
        assert tags == {}

    def test_bad_magic_raises(self):
        with pytest.raises(StorletException):
            decode_tags(b"JPEG" + b"\x00" * 10)

    def test_truncated_raises(self):
        data = encode_image(TAGS)
        with pytest.raises(StorletException):
            decode_tags(data[:8])

    def test_oversized_key_rejected(self):
        with pytest.raises(ValueError):
            encode_image({"k" * 300: "v"})

    @settings(max_examples=40, deadline=None)
    @given(
        tags=st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1,
                max_size=10,
            ),
            st.text(max_size=30),
            max_size=10,
        ),
        payload=st.binary(max_size=500),
    )
    def test_round_trip_property(self, tags, payload):
        data = encode_image(tags, payload)
        decoded, offset = decode_tags(data)
        assert decoded == tags
        assert data[offset:] == payload


class TestExtractorStorlet:
    def run(self, data, parameters):
        return run_storlet(MetadataExtractorStorlet(), data, parameters).body

    def test_extracts_requested_tags(self):
        data = encode_image(TAGS, payload_size=10_000)
        result = self.run(data, {"tags": json.dumps(["camera", "iso"])})
        assert result == b"NikonD500,400\n"

    def test_missing_tags_empty(self):
        data = encode_image({"camera": "X"})
        result = self.run(data, {"tags": json.dumps(["camera", "gps"])})
        assert result == b"X,\n"

    def test_include_size(self):
        data = encode_image(TAGS, payload_size=12345)
        result = self.run(
            data,
            {"tags": json.dumps(["camera"]), "include_size": "true"},
        )
        assert result == b"NikonD500,12345\n"

    def test_requires_tags_parameter(self):
        with pytest.raises(StorletException):
            self.run(encode_image(TAGS), {})

    def test_output_is_tiny_compared_to_object(self):
        data = encode_image(TAGS, payload_size=500_000)
        result = self.run(data, {"tags": json.dumps(["camera"])})
        assert len(result) < 40
        assert len(data) > 500_000


@pytest.fixture
def photo_rig(fresh_scoop):
    from repro.storlets.metadata_storlet import MetadataExtractorStorlet

    fresh_scoop.engine.deploy(MetadataExtractorStorlet(), fresh_scoop.client)
    fresh_scoop.client.put_container("photos")
    cameras = ["NikonD500", "CanonR5", "NikonD500", "SonyA7"]
    for index, camera in enumerate(cameras):
        fresh_scoop.client.put_object(
            "photos",
            f"img-{index:03d}.img",
            encode_image(
                {
                    "camera": camera,
                    "iso": str(100 * (index + 1)),
                    "width": "4000",
                    "height": "3000",
                },
                payload_size=50_000 + index * 1000,
            ),
        )
    return fresh_scoop


class TestBinaryMetadataRelation:
    TAG_SCHEMA = Schema.of("camera", "iso:int", "width:int", "height:int")

    def register(self, rig):
        relation = BinaryMetadataRelation(
            rig.spark_context,
            rig.connector,
            "photos",
            self.TAG_SCHEMA,
        )
        rig.session.register_table("photos", relation)
        return relation

    def test_sql_over_binary_metadata(self, photo_rig):
        self.register(photo_rig)
        rows = photo_rig.session.sql(
            "SELECT object_name, iso FROM photos "
            "WHERE camera = 'NikonD500' ORDER BY object_name"
        ).collect()
        assert rows == [("img-000.img", 100), ("img-002.img", 300)]

    def test_aggregation_over_metadata(self, photo_rig):
        self.register(photo_rig)
        rows = photo_rig.session.sql(
            "SELECT camera, count(*) AS shots FROM photos "
            "GROUP BY camera ORDER BY camera"
        ).collect()
        assert rows == [("CanonR5", 1), ("NikonD500", 2), ("SonyA7", 1)]

    def test_payload_size_column(self, photo_rig):
        self.register(photo_rig)
        rows = photo_rig.session.sql(
            "SELECT payload_bytes FROM photos ORDER BY payload_bytes"
        ).collect()
        assert [size for (size,) in rows] == [50_000, 51_000, 52_000, 53_000]

    def test_payload_never_crosses_the_wire(self, photo_rig):
        self.register(photo_rig)
        photo_rig.connector.metrics.reset()
        photo_rig.session.sql("SELECT camera FROM photos").collect()
        metrics = photo_rig.connector.metrics
        dataset_bytes = photo_rig.connector.dataset_size("photos")
        assert metrics.bytes_transferred < dataset_bytes / 100
        assert metrics.pushdown_requests == len(
            photo_rig.client.list_objects("photos")
        )
