"""The generator's output is a pinned contract.

Every corpus in the repo -- the hotpath ledger's, the CI gates', the
Table I sample and ``repro generate`` -- comes from
:class:`MeterDataGenerator`, and ``results/`` was measured on it.  The
digests below were taken from the row-at-a-time renderer the generator
replaced; a change to the generator's bytes must regenerate ``results/``
and update them together.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.gridpocket_runs import TABLE1_SAMPLE_SPEC
from repro.gridpocket import DatasetSpec, METER_SCHEMA, MeterDataGenerator


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def names(count: int):
    return [f"meter-{index:04d}.csv" for index in range(count)]


#: name -> (spec, digest of the objects' concatenation, object names,
#: digest of ``repr(list(rows()))``)
PINNED = {
    "ledger": (
        DatasetSpec(meters=200, intervals=200, objects=8, seed=20170417001),
        "03ea3808379be6617e2f3864d9e7e99b6ff78dba025be03bf597138e7e9ef007",
        names(8),
        "d59224c736aebc9447e464d7a421596a41e60d0495a225f808ede3e2b52ec6a1",
    ),
    "default": (
        DatasetSpec(),
        "22051da237f64942129af2fcdab8673f34370f248879a51adf9bddafbe3faa34",
        names(4),
        "b854bfa2483958f4102a0c8080b674b8891fe4b7745bb3d0721fd56d8e6d6512",
    ),
    # 2331 rows over 5 objects (467 x 4 + 463); 7-minute steps cross the
    # 07:00 / 22:00 off-peak edges between readings.
    "uneven": (
        DatasetSpec(meters=7, intervals=333, objects=5, interval_minutes=7),
        "68556a3addbac7e663147b0b22d0ecc8d553d7da333d80ccb69e624335e9a909",
        names(5),
        "5bd03b10005f76c93e3e9d382b2f4caf967dc6ebc868719ab60e0e15ce6e71b6",
    ),
    # Daily readings across 2016-02-29.
    "leap_day": (
        DatasetSpec(meters=3, intervals=40, interval_minutes=1440, start="2016-02-27"),
        "4180855c2a517fac7edc723ae829026b5c65ce2f0cabcbe073e250d38c76a7a7",
        names(4),
        "04c3e1f07fb6f8f3d9ac3d22d356970bfda0b6d74d0c1273676239e72944e037",
    ),
}

TABLE1_ROWS_DIGEST = "4a8e2cbb1d929efb843bf5c2823ac9a1f5e758b0934a83b259551a2776d6cde9"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_csv_objects_are_pinned(name):
    spec, digest, object_names, _rows = PINNED[name]
    objects = list(MeterDataGenerator(spec).csv_objects())
    assert [object_name for object_name, _ in objects] == object_names
    assert sha256(b"".join(data for _, data in objects)) == digest


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rows_are_pinned(name):
    spec, _digest, _names, digest = PINNED[name]
    assert sha256(repr(list(MeterDataGenerator(spec).rows())).encode()) == digest


def test_table1_sample_rows_are_pinned():
    rows = list(MeterDataGenerator(TABLE1_SAMPLE_SPEC).rows())
    assert sha256(repr(rows).encode()) == TABLE1_ROWS_DIGEST


def reference_line(row) -> bytes:
    """The generator's former rendering of one row."""
    return (",".join(METER_SCHEMA.render_row(row)) + "\n").encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(
    meters=st.integers(0, 12),
    intervals=st.integers(0, 40),
    objects=st.integers(1, 6),
    interval_minutes=st.sampled_from([1, 7, 10, 1440]),
    seed=st.integers(0, 2**32),
)
def test_text_matches_rendered_rows(meters, intervals, objects, interval_minutes, seed):
    spec = DatasetSpec(
        meters=meters,
        intervals=intervals,
        objects=objects,
        interval_minutes=interval_minutes,
        seed=seed,
    )
    generator = MeterDataGenerator(spec)
    rows = list(generator.rows())
    lines = list(generator.csv_lines())
    assert lines == [reference_line(row) for row in rows]
    assert len(rows) == spec.total_rows()
    objects_data = [data for _, data in generator.csv_objects()]
    assert b"".join(lines) == b"".join(objects_data)
    per_object = max(1, -(-len(lines) // objects))
    assert objects_data == [
        b"".join(lines[start : start + per_object])
        for start in range(0, len(lines), per_object)
    ]


class TestSpecValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("meters", -1),
            ("intervals", -1),
            ("objects", 0),
            ("objects", -2),
            ("interval_minutes", 0),
            ("interval_minutes", -10),
        ],
    )
    def test_rejects_shapes_the_generator_cannot_honour(self, field, value):
        with pytest.raises(ValueError, match=field):
            DatasetSpec(**{field: value})

    def test_accepts_the_smallest_valid_shape(self):
        spec = DatasetSpec(meters=0, intervals=0, objects=1, interval_minutes=1)
        assert list(MeterDataGenerator(spec).csv_objects()) == []
