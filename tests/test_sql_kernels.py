"""Kernel compiler tests: one evaluator, checked for independence.

The compile-once kernels (:mod:`repro.sql.kernels`) are the only
evaluator: they run every plan (:func:`repro.sql.executor.execute_plan`)
and a single row is a batch of one.  Each node of an expression is
*fused* where its operation is proven total and *guarded* -- one call
per row, a failure raised as ``SqlTypeError`` -- where it is not.  Two
contracts are checked against the query / row generators the SQL fuzz
and oracle suites use:

* *carrier independence*: an expression's cells, proven or not, are
  the same over plain lists, dictionary-coded and packed columns and
  the same rows one per batch -- or every case raises ``SqlTypeError``;
* *batching independence*: a query's answer does not depend on how the
  scan was cut into batches (unless it both has a LIMIT and can raise:
  errors surface a batch at a time).

What the answers *should be* is ``tests/test_sql_oracle.py``'s business.
"""

import struct
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar.batch import ColumnBatch, DictColumn, PackedColumn
from repro.obs.metrics import MetricsRegistry
from repro.sql import filters
from repro.sql.catalyst import Optimizer, build_logical_plan
from repro.sql.errors import SqlError, SqlTypeError
from repro.sql.executor import execute_plan, execute_query
from repro.sql.filters import filters_from_json, filters_to_json
from repro.sql.kernels import FilterMask, compile_expression, compile_predicate
from repro.sql.parser import parse_expression, parse_query
from repro.sql.types import Schema

from tests.row_at_a_time import filter_judge, row_evaluator
from tests.test_sql_fuzz import SCHEMA, queries, rows_strategy
from tests.test_sql_oracle import oracle_queries, predicate, scalar
from tests.test_sql_oracle import rows as oracle_rows


def _batches(rows, batch_rows):
    """Chunk rows into ColumnBatches of at most ``batch_rows`` rows."""
    return [
        ColumnBatch.from_rows(SCHEMA, tuple(rows[i : i + batch_rows]))
        for i in range(0, len(rows), batch_rows)
    ]


def _run(sql, batches):
    """``(outcome, refused)``: the answer (or the ``SqlError`` class
    raised) over ``batches``, and whether any expression ran interpreted."""
    registry = MetricsRegistry()
    try:
        plan = Optimizer().optimize(build_logical_plan(parse_query(sql), SCHEMA))
        schema, rows = execute_plan(plan, lambda: iter(batches), SCHEMA, registry=registry)
        outcome = (schema.names, rows)
    except SqlError as error:
        outcome = type(error)
    return outcome, bool(registry.counter_series("sql.kernel_refusals"))


class TestPlanEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(sql=st.one_of(queries(), oracle_queries()), rows=oracle_rows)
    def test_answers_do_not_depend_on_the_batch_size(self, sql, rows):
        whole, refused = _run(sql, _batches(rows, 1024))
        if refused and parse_query(sql).limit is not None:
            return  # a raising row behind the limit: batch-granular
        for batch_rows in (1, 3, 7):
            assert _run(sql, _batches(rows, batch_rows))[0] == whole, sql

    @settings(max_examples=100, deadline=None)
    @given(sql=queries(), rows=rows_strategy)
    def test_batch_path_agrees_with_execute_query(self, sql, rows):
        """``execute_query`` is ``execute_plan`` over its own chunking."""
        try:
            schema, expected = execute_query(sql, SCHEMA, rows)
        except SqlError as error:
            assert _run(sql, _batches(rows, 1024))[0] is type(error)
            return
        assert _run(sql, _batches(rows, 1024))[0] == (schema.names, expected)


def _coded(values):
    """``values`` dictionary-coded, entries in first-appearance order."""
    entries = list(dict.fromkeys(values))
    codes = {entry: code for code, entry in enumerate(entries)}
    return DictColumn(entries, bytes(codes[value] for value in values))


def _carriers(rows):
    """``rows`` as the column vectors a scan can deliver: plain lists,
    every column dictionary-coded, and -- over the rows whose numbers are
    all there -- the two numeric columns packed."""
    def transposed(rows):
        return [list(column) for column in zip(*rows)] or [[] for _ in SCHEMA.names]

    plain = transposed(rows)
    yield len(rows), plain
    yield len(rows), [_coded(column) for column in plain]
    dense = [row for row in rows if row[2] is not None and row[3] is not None]
    columns = transposed(dense)
    columns[2] = _packed(columns[2], "d")
    columns[3] = _packed(columns[3], "q")
    yield len(dense), columns


def _outcome(evaluate):
    """What ``evaluate()`` answers -- its cells, by ``repr`` (1, 1.0 and
    True apart) -- or ``SqlTypeError`` if it raised one."""
    try:
        return [repr(cell) for cell in evaluate()]
    except SqlTypeError:
        return SqlTypeError


class TestPredicateKernels:
    @settings(max_examples=200, deadline=None)
    @given(text=st.one_of(predicate, scalar), rows=oracle_rows)
    def test_cells_do_not_depend_on_the_carrier_or_the_batch(self, text, rows):
        """Proven or not, an expression's kernel answers each carrier's
        rows as those rows one per batch do, and its selection keeps the
        rows whose cell is True; where one row raises, all of it raises
        ``SqlTypeError``."""
        expression = parse_expression(text)
        kernel = compile_expression(expression, SCHEMA)
        selection = compile_predicate(expression, SCHEMA)
        one_row = row_evaluator(expression, SCHEMA)
        for n, columns in _carriers(rows):
            held = list(zip(*columns))  # the cells as this carrier reads them
            expected = _outcome(lambda: [one_row(row) for row in held])
            assert _outcome(lambda: kernel(columns, n)) == expected, text
            assert _outcome(lambda: selection(columns, n)) == (
                expected
                if expected is SqlTypeError
                else [repr(row) for row, cell in enumerate(expected) if cell == "True"]
            ), text

    @settings(max_examples=100, deadline=None)
    @given(rows=rows_strategy, value=st.integers(-100, 9999))
    def test_filter_kernels_match_pushdown_semantics(self, rows, value):
        """FilterMask mirrors the storlet-side Filter conjunction (NULL
        never matches), round-tripped through the wire format."""
        from repro.sql.filters import GreaterThan

        filters = filters_from_json(
            filters_to_json([GreaterThan("code", value)])
        )
        batch = ColumnBatch.from_rows(SCHEMA, tuple(rows))
        mask = FilterMask(filters, SCHEMA).mask(batch.columns, len(batch))
        picked = [i for i, flag in enumerate(mask) if flag]
        code = SCHEMA.index_of("code")
        expected = [
            i
            for i, row in enumerate(rows)
            if row[code] is not None and row[code] > value
        ]
        assert picked == expected


# -- what a refusal changes: when an error surfaces ----------------------------

_MIXED = Schema.of("a:int", "s")


class _CountingSource:
    """A batch source that counts the batches pulled from it."""

    def __init__(self, *batches):
        self.batches = [ColumnBatch.from_rows(_MIXED, tuple(rows)) for rows in batches]
        self.pulled = 0

    def __call__(self):
        for batch in self.batches:
            self.pulled += 1
            yield batch


def _mixed_plan(sql):
    return Optimizer().optimize(build_logical_plan(parse_query(sql), _MIXED))


class TestRefusedExpressionsRunInterpreted:
    """``s`` is a STRING column, so ``s < 5`` is not provably total: it
    runs guarded, and raises for the row that holds text."""

    LIMITED = "SELECT a FROM t WHERE s < 5 LIMIT 1"

    def test_a_raising_row_in_the_next_batch_is_never_reached(self):
        source = _CountingSource([(1, 3), (2, 4)], [(3, "x")])
        _schema, rows = execute_plan(_mixed_plan(self.LIMITED), source, _MIXED)
        assert rows == [(1,)]
        assert source.pulled == 1

    def test_a_raising_row_in_the_same_batch_raises(self):
        source = _CountingSource([(1, 3), (2, 4), (3, "x")])
        with pytest.raises(SqlTypeError):
            execute_plan(_mixed_plan(self.LIMITED), source, _MIXED)

    def test_the_condition_stops_at_false(self):
        """A row's AND stops only at False: a NULL left operand does not
        hide what its right operand raises; a False one does -- even
        though ``a > 0`` alone would have fused."""
        plan = _mixed_plan("SELECT a FROM t WHERE a > 0 AND s < 5")
        with pytest.raises(SqlTypeError):
            execute_plan(plan, _CountingSource([(None, "x")]), _MIXED)
        plan = _mixed_plan("SELECT a FROM t WHERE a > 0 AND s < 5")
        _schema, rows = execute_plan(
            plan, _CountingSource([(-1, "x"), (2, 3), (3, 9)]), _MIXED
        )
        assert rows == [(2,)]

    def test_a_refused_projection_and_aggregate_answer_through_kernels(self):
        sql = "SELECT s + 1, a FROM t WHERE a > 1"
        _schema, rows = execute_plan(
            _mixed_plan(sql), _CountingSource([(1, "x"), (2, 3)], [(5, 7)]), _MIXED
        )
        assert rows == [(4, 2), (8, 5)]
        sql = "SELECT s * 2, count(*), sum(s + a) FROM t GROUP BY s * 2"
        _schema, rows = execute_plan(
            _mixed_plan(sql), _CountingSource([(1, 3), (2, 3)], [(5, 7)]), _MIXED
        )
        assert rows == [(6, 2, 9), (14, 1, 12)]


class TestEveryRowFailureIsASqlTypeError:
    """Over the text cell ``'x'`` of the STRING column ``s``, every
    operator that cannot take it raises ``SqlTypeError`` naming itself
    and the operands -- in a projection, a WHERE, a HAVING, a sort key
    -- and never a raw Python error."""

    @pytest.mark.parametrize(
        "sql, operator",
        [
            ("SELECT -s FROM t", "-"),
            ("SELECT ABS(s) FROM t", "ABS"),
            ("SELECT FLOOR(s) FROM t", "FLOOR"),
            ("SELECT YEAR(s) FROM t", "YEAR"),
            ("SELECT INT(s) FROM t", "INT"),
            ("SELECT s < 5 FROM t", "<"),
            ("SELECT a FROM t WHERE s BETWEEN 1 AND 5", "BETWEEN"),
            ("SELECT a FROM t WHERE a > 0 AND s % 2 = 1", "%"),
            ("SELECT s, count(*) FROM t GROUP BY s HAVING -s < 0", "-"),
            ("SELECT s FROM t ORDER BY CEIL(s)", "CEIL"),
        ],
    )
    def test_a_text_cell(self, sql, operator):
        with pytest.raises(SqlTypeError) as raised:
            execute_plan(_mixed_plan(sql), _CountingSource([(1, "x")]), _MIXED)
        assert f"cannot apply {operator} to " in str(raised.value)
        assert "'x'" in str(raised.value)


# -- source filters over dictionary-coded columns ------------------------------

_FILTER_SCHEMA = Schema.of("s", "i:int", "f:float")
_POOLS = {
    "s": ["Rotterdam", "Milan", "Lyon", "2015-01-03", "", "é"],
    "i": [-3, 0, 7, 5000, 2**40],
    "f": [0.0, -0.0, 1.5, float("inf"), float("nan")],
}
#: Literals of every kind against every column: an int against a
#: string column must not match and must not raise.
_LITERALS = st.one_of(
    *[st.sampled_from(pool) for pool in _POOLS.values()], st.just("%a%")
)


def _leaf(draw):
    attribute = draw(st.sampled_from(sorted(_POOLS)))
    kind = draw(
        st.sampled_from(
            [
                filters.EqualTo, filters.GreaterThan, filters.GreaterThanOrEqual,
                filters.LessThan, filters.LessThanOrEqual,
                filters.StringStartsWith, filters.StringEndsWith,
                filters.StringContains, filters.LikePattern,
                filters.In, filters.IsNull, filters.IsNotNull,
            ]
        )
    )
    if kind in (filters.IsNull, filters.IsNotNull):
        return kind(attribute)
    if kind is filters.In:
        return kind(attribute, draw(st.lists(_LITERALS, max_size=3)))
    if kind in (
        filters.StringStartsWith, filters.StringEndsWith,
        filters.StringContains, filters.LikePattern,
    ):
        return kind(attribute, draw(st.sampled_from(["R%", "%a%", "Milan", "2015-01-", "_"])))
    return kind(attribute, draw(_LITERALS))


_FILTER_TREES = st.recursive(
    st.composite(_leaf)(),
    lambda children: st.one_of(
        st.builds(filters.And, children, children),
        st.builds(filters.Or, children, children),
        st.builds(filters.Not, children),
    ),
    max_leaves=6,
)


def _dictionary_twin(pool, positions):
    """The cells ``pool[p]`` as a decoded dictionary segment carries
    them: entries in first-appearance order, NULL (if any) last.  Keyed
    by pool position, so 0.0 / -0.0 and every NaN stay entries of their
    own, as the byte-keyed encoder keeps them."""
    used = sorted(dict.fromkeys(positions), key=lambda p: pool[p] is None)
    codes = {position: code for code, position in enumerate(used)}
    return DictColumn([pool[p] for p in used], bytes(codes[p] for p in positions))


class TestFilterMaskOnDictionaryColumns:
    @settings(max_examples=300, deadline=None)
    @given(
        trees=st.lists(_FILTER_TREES, min_size=1, max_size=3),
        picks=st.lists(
            st.tuples(*[st.integers(0, 6)] * 3), min_size=1, max_size=40
        ),
        coded=st.sets(st.sampled_from([0, 1, 2])),
    )
    def test_mask_equals_the_mask_over_the_materialised_twin(
        self, trees, picks, coded
    ):
        pools = [pool + [None] for pool in _POOLS.values()]
        positions = [
            [pick[index] % len(pool) for pick in picks]
            for index, pool in enumerate(pools)
        ]
        plain = [[pool[p] for p in column] for pool, column in zip(pools, positions)]
        columns = [
            _dictionary_twin(pools[index], positions[index]) if index in coded else column
            for index, column in enumerate(plain)
        ]
        n = len(picks)
        compiled = FilterMask(trees, _FILTER_SCHEMA)
        tally = Counter()
        mask = compiled.mask(columns, n, tally)
        assert mask == compiled.mask(plain, n)
        # ... which is the per-row reference's verdict.
        judge = filter_judge(trees, _FILTER_SCHEMA)
        assert mask == bytes(map(judge, zip(*plain)))
        kept, count = compiled.select(columns, n, [2, 0])
        assert count == mask.count(1)
        if count:
            for column, index in zip(kept, (2, 0)):
                want = [v for v, flag in zip(plain[index], mask) if flag]
                assert [repr(v) for v in column] == [repr(v) for v in want]
                if index in coded and count != n:
                    assert isinstance(column, DictColumn)
        if not coded:
            assert tally["dictionary"] == 0
        if coded == {0, 1, 2}:
            assert tally["rows"] == 0

    def test_a_plain_dict_counts_the_evaluations(self):
        compiled = FilterMask(
            [filters.LikePattern("s", "M%"), filters.LessThan("i", 3)],
            _FILTER_SCHEMA,
        )
        columns = [
            DictColumn(["Lyon", "Milan"], bytes([0, 1, 1, 0])),
            [1, 2, 3, 4],
            [None] * 4,
        ]
        tally: dict = {}
        assert compiled.mask(columns, 4, tally) == bytes([0, 1, 0, 0])
        assert tally == {"dictionary": 2, "rows_c": 4}
        # A NULL stops the C-level pass: the vector is judged cell by cell.
        columns[1] = [1, None, 3, 4]
        tally = {}
        assert compiled.mask(columns, 4, tally) == bytes(4)
        assert tally == {"dictionary": 2, "rows": 4}


# -- comparisons without a Python frame per row ---------------------------------

_COMPARISONS = [
    filters.EqualTo, filters.LessThan, filters.LessThanOrEqual,
    filters.GreaterThan, filters.GreaterThanOrEqual,
]


def _row_by_row(item, schema, index, cells):
    """The per-row reference over ``cells`` as column ``index``."""
    check = filter_judge([item], schema)
    blank = [None] * len(schema)
    return bytes(
        bool(check(tuple(blank[:index] + [cell] + blank[index + 1 :])))
        for cell in cells
    )


def _packed(cells, code, base=0):
    """``cells`` as the packed column a decoded segment would be."""
    raw = array(code, [cell - base for cell in cells]).tobytes()
    return PackedColumn(memoryview(raw).cast(code), base)


class TestComparisonMasks:
    """The C-level pass and its guarded fallback give, byte for byte,
    the mask of the per-row reference (``filter_judge``)."""

    #: name -> (column, cells, literal, the domain that judges it).
    CASES = {
        "plain ints": ("i", [4999, 5000, 5001, -7], 5000, "rows_c"),
        "a NULL": ("i", [4999, None, 5001], 5000, "rows"),
        "a str in an INT column": ("i", [4999, "5000", 5001], 5000, "rows"),
        "NaN cells": ("f", [1.5, float("nan"), -0.0, float("inf")], 1.5, "rows_c"),
        "a NaN literal": ("f", [1.5, float("nan"), 0.0], float("nan"), "rows_c"),
        "True in an INT column": ("i", [0, True, 2, False], 1, "rows_c"),
        "int cells, float literal": ("i", [4999, 5000, 5001], 4999.5, "rows_c"),
        "float cells, int literal": ("f", [0.5, 1.0, 1.5], 1, "rows_c"),
        "a literal beyond 2^63": ("i", [0, 2**63 - 1, -(2**63)], 2**63 + 5, "rows_c"),
        "a literal beyond -2^63": ("i", [0, 2**63 - 1, -(2**63)], -(2**70), "rows_c"),
        "ints beyond int64": ("i", [10**30, -(10**30), 5], 10**30, "rows_c"),
        "no rows": ("i", [], 5, "rows_c"),
        # A str literal: the C-level pass over str cells; a NULL or a
        # number stops it (but not ``==``, which never raises).
        "a str literal": ("s", ["a", "b", None], "b", "rows"),
        "str cells, str literal": ("s", ["a", "b", "", "ba"], "b", "rows_c"),
        "int cells, str literal": ("i", [1, 2, 3], "2", "rows"),
        # Not an int, float or str literal: the guarded loop, as before.
        "a bool literal": ("i", [0, 1, 2], True, "rows"),
    }

    @pytest.mark.parametrize("kind", _COMPARISONS)
    @pytest.mark.parametrize("case", list(CASES))
    def test_mask_is_the_row_predicate(self, case, kind):
        name, cells, literal, domain = self.CASES[case]
        index = _FILTER_SCHEMA.index_of(name)
        item = filters_from_json(filters_to_json([kind(name, literal)]))[0]
        columns = [None] * 3
        columns[index] = cells
        tally: dict = {}
        mask = FilterMask([item], _FILTER_SCHEMA).mask(columns, len(cells), tally)
        assert mask == _row_by_row(item, _FILTER_SCHEMA, index, cells)
        if kind is filters.EqualTo and domain == "rows" and type(literal) in (int, float, str):
            domain = "rows_c"  # ``==`` never raises: no cell stops the pass
        assert tally == {domain: len(cells)}

    #: name -> (column, cells, literal, the domain that judges it).
    STRING_CASES = {
        "str cells": ("s", ["Rotterdam", "Paris", "", "dam"], "dam", "rows_c"),
        "an empty literal": ("s", ["Rotterdam", ""], "", "rows_c"),
        "a NULL": ("s", ["Rotterdam", None, "Paris"], "Rot", "rows"),
        # ``str(cell)`` is what the reference tests: the pass stops.
        "int cells": ("i", [12, 21, 2], "2", "rows"),
        "a non-str literal": ("s", ["a1", "b"], 1, "rows"),
        "no rows": ("s", [], "a", "rows_c"),
    }

    @pytest.mark.parametrize(
        "kind", [filters.StringStartsWith, filters.StringEndsWith, filters.StringContains]
    )
    @pytest.mark.parametrize("case", list(STRING_CASES))
    def test_string_filters_are_the_row_predicate(self, case, kind):
        name, cells, literal, domain = self.STRING_CASES[case]
        index = _FILTER_SCHEMA.index_of(name)
        item = filters_from_json(filters_to_json([kind(name, literal)]))[0]
        columns = [None] * 3
        columns[index] = cells
        tally: dict = {}
        mask = FilterMask([item], _FILTER_SCHEMA).mask(columns, len(cells), tally)
        assert mask == _row_by_row(item, _FILTER_SCHEMA, index, cells)
        assert tally == {domain: len(cells)}

    @pytest.mark.parametrize("kind", _COMPARISONS)
    @pytest.mark.parametrize(
        "code, base",
        [("B", 0), ("B", -5), ("H", 2), ("H", 2**62 + 11), ("I", -(2**63)), ("I", 1000)],
    )
    def test_byte_planes_at_every_boundary(self, kind, code, base):
        """A packed narrow-int column against an int literal: every
        plane boundary, both ends of the offset range, and beyond."""
        top = 1 << 8 * struct.calcsize(code)
        edges = sorted(
            {0, 1, 2, 254, 255, top - 2, top - 1}
            | {k * step + d for step in (256, 65536, 1 << 24) for k in (1, 2, 255)
               for d in (-1, 0, 1) if 0 <= k * step + d < top}
        )
        cells = [base + offset for offset in edges]
        column = _packed(cells, code, base)
        assert list(column) == cells
        literals = [base + e for e in (-(2**64), -2, -1, top, top + 1, 2**64)] + cells
        for literal in literals:
            # A carrier holds no NULL: a flipped plane mask is exact.
            for item in (kind("i", literal), filters.Not(kind("i", literal))):
                tally: dict = {}
                mask = FilterMask([item], _FILTER_SCHEMA).mask([None, column, None], len(cells), tally)
                assert mask == _row_by_row(item, _FILTER_SCHEMA, 1, cells), (literal - base)
                assert tally == {"planes": len(cells)}

    @pytest.mark.parametrize("kind", _COMPARISONS)
    def test_eight_byte_columns_and_float_literals_take_the_c_level_pass(self, kind):
        ints = [-(2**63), -1, 0, 5, 2**63 - 1]
        floats = [-0.0, 0.0, 1.5, float("nan"), float("-inf"), float("inf")]
        for name, column, cells, literal in (
            ("i", _packed(ints, "q"), ints, 5),
            ("i", _packed(ints, "q"), ints, 4.5),
            ("f", _packed(floats, "d"), floats, 1.5),
            ("f", _packed(floats, "d"), floats, 0),
            ("i", _packed([3, 4, 5, 260], "H", 3), [3, 4, 5, 260], 4.5),
        ):
            index = _FILTER_SCHEMA.index_of(name)
            item = kind(name, literal)
            columns = [None] * 3
            columns[index] = column
            tally: dict = {}
            mask = FilterMask([item], _FILTER_SCHEMA).mask(columns, len(cells), tally)
            assert mask == _row_by_row(item, _FILTER_SCHEMA, index, cells)
            assert tally == {"rows_c": len(cells)}

    @pytest.mark.parametrize("kind", _COMPARISONS)
    @pytest.mark.parametrize("case", list(CASES))
    def test_a_negated_mask_is_the_reference(self, case, kind):
        """``Not`` over every case: NULL, NaN and an incomparable cell
        pass in neither polarity, in the domain that judged the leaf --
        but for ``<>``, whose C-level pass a NULL does not stop, so a
        vector holding one is judged cell by cell."""
        name, cells, literal, domain = self.CASES[case]
        index = _FILTER_SCHEMA.index_of(name)
        item = filters.Not(kind(name, literal))
        columns = [None] * 3
        columns[index] = cells
        tally: dict = {}
        mask = FilterMask([item], _FILTER_SCHEMA).mask(columns, len(cells), tally)
        assert mask == _row_by_row(item, _FILTER_SCHEMA, index, cells)
        if kind is filters.EqualTo and None not in cells and type(literal) in (int, float, str):
            domain = "rows_c"
        assert tally == {domain: len(cells)}

    def test_a_conjunction_mixes_the_domains(self):
        compiled = FilterMask(
            [
                filters.And(filters.LessThan("i", 300), filters.GreaterThan("f", 0.5)),
                filters.Not(filters.EqualTo("s", "Lyon")),
            ],
            _FILTER_SCHEMA,
        )
        columns = [
            DictColumn(["Lyon", "Milan"], bytes([0, 1, 1, 1])),
            _packed([7, 299, 300, 8], "H", 7),
            [1.0, None, 2.0, 0.75],
        ]
        tally: dict = {}
        assert compiled.mask(columns, 4, tally) == bytes([0, 0, 0, 1])
        assert tally == {"planes": 4, "rows": 4, "dictionary": 2}


class TestNegationIsSqlNot:
    """The corners of ``Not`` pinned by hand: what SQL's NOT keeps, and
    the per-row reference agreeing."""

    COLUMNS = [
        ["a", None, "b", "c"],
        [1, None, 3, "x"],
        [1.0, None, float("nan"), 2.0],
    ]

    def _kept(self, item):
        mask = FilterMask([item], _FILTER_SCHEMA).mask(self.COLUMNS, 4)
        assert mask == bytes(map(filter_judge([item], _FILTER_SCHEMA), zip(*self.COLUMNS)))
        return [row for row, flag in enumerate(mask) if flag]

    def test_a_null_literal_passes_neither_polarity(self):
        assert self._kept(filters.EqualTo("i", None)) == []
        assert self._kept(filters.Not(filters.EqualTo("i", None))) == []
        assert self._kept(filters.Not(filters.LessThan("f", None))) == []

    def test_a_negated_list_holding_null_keeps_nothing(self):
        assert self._kept(filters.In("i", [1, None])) == [0]
        assert self._kept(filters.Not(filters.In("i", [1, None]))) == []
        assert self._kept(filters.Not(filters.In("i", [1]))) == [2, 3]

    def test_not_below_nan(self):
        # ``f < nan`` is False on every number, so NOT keeps them all;
        # the NULL row stays out.
        assert self._kept(filters.LessThan("f", float("nan"))) == []
        assert self._kept(filters.Not(filters.LessThan("f", float("nan")))) == [0, 2, 3]

    def test_a_negated_incomparable_leaf_keeps_nothing_of_it(self):
        # "x" in an INT column cannot be ordered against 2.
        assert self._kept(filters.LessThan("i", 2)) == [0]
        assert self._kept(filters.Not(filters.LessThan("i", 2))) == [2]
        assert self._kept(filters.Not(filters.StringStartsWith("s", 1))) == []

    def test_de_morgan_and_double_negation(self):
        both = filters.And(filters.GreaterThan("i", 0), filters.GreaterThan("f", 1.5))
        assert self._kept(filters.Not(both)) == [0, 2]
        assert self._kept(filters.Not(filters.Not(both))) == self._kept(both) == []
        either = filters.Or(filters.IsNull("i"), filters.EqualTo("s", "c"))
        assert self._kept(either) == [1, 3]
        assert self._kept(filters.Not(either)) == [0, 2]
