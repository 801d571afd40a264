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
"""

from repro.sql.kernels import compile_expression
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
