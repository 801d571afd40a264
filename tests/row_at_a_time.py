"""The SQL engine one row at a time: the references the batch paths are
held to.

:func:`row_evaluator` evaluates an expression over a single row -- its
kernel (:func:`repro.sql.kernels.compile_expression`) over a batch of
one -- so a test that reasons row by row judges with the very
operators the engine runs, and a batch answer can be compared with the
same rows taken one at a time.

:func:`rowwise_partial_aggregate` is partial aggregation fed one row at
a time.  The production :func:`repro.storlets.aggregation.partial_aggregate`
takes the reader's ``ColumnBatch``es as they come and accumulates a
group at a time (:class:`repro.sql.grouping.GroupTable`,
``Accumulator.add_many``).  This is the loop it replaced, kept as the
differential oracle: every row is evaluated through
:func:`row_evaluator`, looked up in the bounded table and fed to its
group's accumulators with ``add``, one call per aggregate per row; a
row whose key the full table does not hold leaves at once as its own
record, the states of fresh accumulators fed that row alone.
``tests/test_batch_aggregate.py`` requires the two record streams to be
identical, record for record, for every generated input, spill bound
and batch cut.  Only the accumulators themselves (``add``, ``state``)
and the expression kernels are shared with ``src/``; the table, the
spill rule and the ordinals are this loop's own.

:func:`filter_judge` is the per-row reference for a pushed filter (the
wire format, :mod:`repro.sql.filters`), which every scan evaluates with
:class:`repro.sql.kernels.FilterMask`.  It shares no code with that
compiler: each leaf is read as the SQL it stands for through
:func:`row_evaluator` (a string filter as the text test of ``str(cell)``),
a leaf that is NULL or raises is unknown, and the tree is judged under
Kleene logic -- so ``Not`` is SQL's NOT and an unknown leaf passes in
neither polarity.
"""

import operator

from repro.sql import filters as wire
from repro.sql.errors import SqlError
from repro.sql.expressions import BinaryOp, Column, InList, IsNull, Like, Literal
from repro.sql.kernels import FilterMask, compile_expression
from repro.sql.parser import parse_expression


def row_evaluator(expression, schema):
    """``row -> value`` for ``expression`` (an AST or SQL text) over rows
    of ``schema``: its kernel over a batch of one row.  Analysis errors
    raise here; a row the expression cannot be evaluated on raises
    ``SqlTypeError`` when called."""
    if isinstance(expression, str):
        expression = parse_expression(expression)
    kernel = compile_expression(expression, schema)
    return lambda row: kernel([[cell] for cell in row], 1)[0]


_COMPARISONS = {
    wire.EqualTo: "=",
    wire.LessThan: "<",
    wire.LessThanOrEqual: "<=",
    wire.GreaterThan: ">",
    wire.GreaterThanOrEqual: ">=",
}
_TEXT_TESTS = {
    wire.StringStartsWith: str.startswith,
    wire.StringEndsWith: str.endswith,
    wire.StringContains: operator.contains,
}


def _leaf_value(item, schema):
    """``row -> value`` of one leaf filter, as the SQL it stands for."""
    column = Column(item.attribute)
    if type(item) in _TEXT_TESTS:
        read, test, value = row_evaluator(column, schema), _TEXT_TESTS[type(item)], item.value

        def text(row):
            cell = read(row)
            return None if cell is None else test(str(cell), value)

        return text
    if isinstance(item, wire.In):
        expression = InList(column, [Literal(value) for value in item.value])
    elif isinstance(item, (wire.IsNull, wire.IsNotNull)):
        expression = IsNull(column, negated=isinstance(item, wire.IsNotNull))
    elif isinstance(item, wire.LikePattern):
        expression = Like(column, item.value)
    else:
        expression = BinaryOp(_COMPARISONS[type(item)], column, Literal(item.value))
    return row_evaluator(expression, schema)


def _truth(item, schema):
    """``row -> True | False | None``: ``item`` under Kleene logic."""
    if isinstance(item, wire.Not):
        child = _truth(item.child, schema)
        return lambda row: _not(child(row))
    if isinstance(item, (wire.And, wire.Or)):
        left, right = _truth(item.left, schema), _truth(item.right, schema)
        decides = isinstance(item, wire.Or)  # the operand value that decides

        def junction(row):
            values = (left(row), right(row))
            if decides in values:
                return decides
            return None if None in values else not decides

        return junction
    value_of = _leaf_value(item, schema)

    def leaf(row):
        try:
            value = value_of(row)
        except (SqlError, TypeError):
            return None
        return None if value is None else bool(value)

    return leaf


def _not(value):
    return None if value is None else not value


def filter_judge(filters, schema):
    """``row -> bool``: does a row of ``schema`` pass every wire filter
    in ``filters``?  True only where each is True; see the module
    docstring."""
    truths = [_truth(item, schema) for item in filters]
    return lambda row: all(truth(row) is True for truth in truths)


def rowwise_partial_aggregate(rows, spec, schema, max_groups):
    key_evals = [row_evaluator(text, schema) for text in spec.group_by]
    input_evals = [
        (lambda row: 1) if arg.strip() == "*" else row_evaluator(arg, schema)
        for _name, arg in spec.aggregates
    ]
    groups = {}
    first_seen = {}
    for ordinal, row in enumerate(rows):
        key = tuple(evaluate(row) for evaluate in key_evals)
        accumulators = groups.get(key)
        if accumulators is None and len(groups) >= max_groups:
            alone = spec.accumulators()
            for accumulator, evaluate in zip(alone, input_evals):
                accumulator.add(evaluate(row))
            yield (ordinal, key, tuple(accumulator.state() for accumulator in alone))
            continue
        if accumulators is None:
            accumulators = groups[key] = spec.accumulators()
            first_seen[key] = ordinal
        for accumulator, evaluate in zip(accumulators, input_evals):
            accumulator.add(evaluate(row))
    for key, accumulators in groups.items():
        yield (
            first_seen[key],
            key,
            tuple(accumulator.state() for accumulator in accumulators),
        )


def shipped_mask(filters, schema, rows):
    """The mask :class:`~repro.sql.kernels.FilterMask` -- what every
    scan runs, not a reference -- gives ``rows`` of ``schema``: one 0/1
    byte per row, for a differential to hold to :func:`filter_judge`."""
    columns = list(zip(*rows)) or [()] * len(schema)
    return FilterMask(filters, schema).mask(columns, len(rows))
