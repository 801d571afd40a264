"""Partial aggregation fed one row at a time: the reference.

The production :func:`repro.storlets.agg_storlet.tagged_partial_aggregate`
takes its input a batch at a time and accumulates a group at a time
(:class:`repro.sql.grouping.GroupTable`, ``Accumulator.add_many``).
This is the loop it replaced, kept as the differential oracle: every
row is evaluated through the bound expressions, looked up in the
bounded table and fed to its group's accumulators with ``add``, one
call per aggregate per row.  ``tests/test_batch_aggregate.py`` requires
the two record streams to be identical, record for record, for every
generated input, spill bound and batch size.

Only the accumulators themselves (``add``, ``state``) are shared with
``src/``; the table, the spill rule and the ordinals are this loop's
own.
"""


def rowwise_tagged_partial_aggregate(rows, spec, schema, max_groups):
    key_evals, input_evals = spec.bind(schema)
    groups = {}
    first_seen = {}
    for ordinal, row in enumerate(rows):
        key = tuple(evaluate(row) for evaluate in key_evals)
        accumulators = groups.get(key)
        if accumulators is None:
            if len(groups) >= max_groups:
                yield ("r", ordinal, tuple(row))
                continue
            accumulators = groups[key] = spec.accumulators()
            first_seen[key] = ordinal
        for accumulator, evaluate in zip(accumulators, input_evals):
            accumulator.add(evaluate(row))
    for key, accumulators in groups.items():
        yield (
            "p",
            first_seen[key],
            key,
            tuple(accumulator.state() for accumulator in accumulators),
        )
