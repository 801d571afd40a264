"""The one pushdown decision, cell by cell, and the one discovery walk.

Every scan of data in a container -- CSV, RCF1, and the GROUP-BY task
over either -- takes its pushdown decision in
:meth:`repro.core.delegator.AnalyticsDelegator.delegate`.  The table
below drives all four through every combination of engine, the
engine's storage CPU input and task and pins what comes out (the task
the scan carries, the record's reason code) *and who was asked* (how
many decisions the engine logged): a no-op task still meets the engine
but is never sent, a vetoed task is a compute decision, the aggregation
task is never a no-op.  A CPU input needs an engine to read it, so the
CPU axis only varies where there is one.  CSV and RCF1 must fill every
cell identically, scans and GROUP-BY tasks alike.
"""

import itertools
from dataclasses import replace

import pytest

from repro.core import ScoopContext
from repro.core.delegator import LOG_LENGTH, AnalyticsDelegator
from repro.core.pushdown import PushdownTask
from repro.placement import PlacementEngine
from repro.placement.cost import TIERS, PlacementCostModel
from repro.spark.columnar_source import ColumnarRelation
from repro.spark.csv_source import CsvRelation
from repro.sql.filters import LessThan
from repro.sql.types import Schema
from tests.agg_partials import gate

SCHEMA = Schema.of("vid", "n:int", "city")
CSV = "".join(f"v{i % 7},{i},city{i % 3}\n" for i in range(300))

KINDS = ("csv", "columnar", "groupby", "groupby_columnar")
#: The engine's storage CPU input: unwired, an idle store, a saturated one.
CPUS = {"none": None, "allow": 0.0, "veto": 0.99}
ENGINES = ("none", "object", "proxy", "compute", "adaptive")
TASKS = ("noop", "filtering")


def _rows(*axes):
    """Every combination, less a CPU input with no engine to read it
    (the CPU, engine and task axes come last)."""
    rows = []
    for row in itertools.product(*axes):
        *_, cpu, engine, _task = row
        if cpu == "none" or engine != "none":
            rows.append(row)
    return rows


@pytest.fixture(scope="module")
def ctx():
    context = ScoopContext(chunk_size=4096, skipping=False, placement=None)
    context.upload_csv("meters", "a.csv", CSV)
    context.convert_csv_to_columnar("meters", "meters-rcf", SCHEMA)
    return context


def _engine(cpu, mode):
    if mode == "none":
        return None
    level = CPUS[cpu]
    return PlacementEngine(
        mode=mode, storage_cpu=None if level is None else lambda: level
    )


def _scan(ctx, kind, engine, task):
    """Build the relation of one cell and the scan its query gets."""
    options = dict(schema=SCHEMA, placement=engine, agg_pushdown=True)
    filters = [LessThan("n", 100)] if task == "filtering" else []
    if kind.endswith("columnar"):
        relation = ColumnarRelation(
            ctx.spark_context, ctx.connector, "meters-rcf", **options
        )
    else:
        relation = CsvRelation(ctx.spark_context, ctx.connector, "meters", **options)
    if not kind.startswith("groupby"):
        return relation, relation.build_scan_filtered(SCHEMA.names, filters)
    where = " WHERE n < 100" if filters else ""
    spec = gate(f"SELECT city, COUNT(*) FROM t{where} GROUP BY city", SCHEMA, relation)
    return relation, relation.build_aggregation_scan(spec, filters)


def _cell(ctx, kind, cpu, engine_name, task):
    """``(carried, reason, engine decisions)``: ``carried`` is the tier
    of the task the scan carries, ``None`` for a plain scan (for GROUP
    BY: no aggregation scan at all)."""
    engine = _engine(cpu, engine_name)
    relation, scan = _scan(ctx, kind, engine, task)
    carried = None
    if scan is not None and scan.task is not None:
        carried = scan.task.run_on
    (record,) = relation.delegator.log
    assert record.pushed_down == (carried is not None)
    return (
        carried,
        record.reason,
        len(engine.decisions) if engine else 0,
    ), engine


def _expected(kind, cpu, engine, task, adaptive_tier):
    """The decision table, written out: who is asked, and what wins."""
    noop = task == "noop" and not kind.startswith("groupby")  # aggregation always reduces
    asked_engine = engine != "none"
    tier = adaptive_tier if engine == "adaptive" else engine
    if noop:
        carried, reason = None, "noop"
    elif not asked_engine:
        carried, reason = "object", "static"
    elif cpu == "veto":
        carried, reason = None, "veto:cpu_ceiling"
    else:
        carried, reason = (None if tier == "compute" else tier), f"placed:{tier}"
    return carried, reason, int(asked_engine)


@pytest.mark.parametrize(
    "kind,cpu,engine,task", _rows(KINDS, CPUS, ENGINES, TASKS)
)
def test_decision_table(ctx, kind, cpu, engine, task):
    got, used_engine = _cell(ctx, kind, cpu, engine, task)
    adaptive_tier = None
    if used_engine is not None and used_engine.decisions:
        adaptive_tier = used_engine.decisions[-1].tier
    assert got == _expected(kind, cpu, engine, task, adaptive_tier)


@pytest.mark.parametrize("cpu,engine,task", _rows(CPUS, ENGINES, TASKS))
def test_csv_and_rcf1_fill_every_cell_identically(ctx, cpu, engine, task):
    csv, _ = _cell(ctx, "csv", cpu, engine, task)
    columnar, _ = _cell(ctx, "columnar", cpu, engine, task)
    assert csv == columnar


@pytest.mark.parametrize("cpu,engine,task", _rows(CPUS, ENGINES, TASKS))
def test_csv_and_rcf1_group_by_fill_every_cell_identically(ctx, cpu, engine, task):
    csv, _ = _cell(ctx, "groupby", cpu, engine, task)
    columnar, _ = _cell(ctx, "groupby_columnar", cpu, engine, task)
    assert csv == columnar


def test_a_relation_switch_declines_without_asking_anyone(ctx):
    engine = _engine("veto", "object")
    relation = CsvRelation(
        ctx.spark_context, ctx.connector, "meters", schema=SCHEMA,
        pushdown=False, placement=engine,
    )
    scan = relation.build_scan_filtered(["vid"], [LessThan("n", 100)])
    assert scan.task is None
    spec = gate("SELECT city, COUNT(*) FROM t GROUP BY city", SCHEMA, relation)
    assert relation.build_aggregation_scan(spec, []) is None
    assert [record.reason for record in relation.delegator.log] == [
        "pushdown_off", "agg_pushdown_off",
    ]
    assert not engine.decisions


def test_every_query_leaves_a_record_and_the_profile_counts_them():
    context = ScoopContext(chunk_size=4096, placement="proxy")
    context.upload_csv("meters", "a.csv", CSV)
    context.register_csv_table("t", "meters", schema=SCHEMA, format="csv")
    context.register_csv_table("c", "meters", schema=SCHEMA, format="columnar")
    context.register_csv_table("off", "meters", schema=SCHEMA, pushdown=False)
    assert not hasattr(context, "delegator")
    for table in ("t", "c", "off"):
        context.run_query(f"SELECT vid FROM {table} WHERE n < 100")
        assert len(context.session.relation(table).delegator.log) == 1
    context.run_query("SELECT * FROM c")
    context.run_query("SELECT city, COUNT(*) FROM t GROUP BY city")
    counted = {
        (entry["outcome"], entry["reason"]): entry["count"]
        for entry in context.explain_profile()["delegation"]
    }
    assert counted == {
        ("pushed", "placed:proxy"): 3,  # t and c filtered, t aggregated
        ("plain", "noop"): 1,
        ("plain", "pushdown_off"): 1,
    }
    assert counted == {
        (labels["outcome"], labels["reason"]): count
        for labels, count in context.registry.counter_series("core.delegations")
    }


def test_the_log_is_bounded():
    delegator = AnalyticsDelegator()
    task = PushdownTask(schema=SCHEMA, filters=[LessThan("n", 1)])
    for _ in range(LOG_LENGTH + 10):
        delegator.delegate(task)
    assert len(delegator.log) == LOG_LENGTH
    assert delegator.pushdown_rate() == 1.0


def test_explain_tells_the_aggregation_truth_without_deciding_anything():
    context = ScoopContext(chunk_size=4096, placement="object")
    context.upload_csv("meters", "a.csv", CSV)
    context.register_csv_table("t", "meters", schema=SCHEMA, format="csv")
    context.register_csv_table(
        "off", "meters", schema=SCHEMA, format="csv", agg_pushdown=False
    )
    engine = context.placement

    def decided():
        delegations = context.registry.counter_series("core.delegations")
        return delegations, len(engine.decisions), engine.decision_count

    before = decided()
    explained = {
        sql: context.sql(sql).explain().split("== Aggregation pushdown ==\n")[1]
        for sql in (
            "SELECT city, COUNT(*), SUM(n) FROM t GROUP BY city HAVING MAX(n) > 5",
            "SELECT vid FROM t WHERE n < 5",
            # An untranslatable conjunct stays above the scan.
            "SELECT city, COUNT(*) FROM t WHERE n + 1 <> 5 GROUP BY city",
            "SELECT city, COUNT(DISTINCT vid) FROM t GROUP BY city",
            "SELECT city, COUNT(*) FROM off GROUP BY city",
        )
    }
    assert decided() == before
    assert list(explained.values()) == [
        "eligible keys=[city] aggregates=[count(*), sum(n), max(n)]",
        "not_aggregate",
        "residual_filter",
        "distinct_aggregate",
        "agg_pushdown_off",
    ]
    # And the eligible one runs that way.
    context.run_query(next(iter(explained)))
    assert context.explain_profile()["sql"]["queries"] == {"agg_pushdown": 1}


class _StoreFirst(PlacementCostModel):
    """Prices the object tier cheapest whatever the scan's size, so
    every query of a kilobyte table pushes down and feeds the loop."""

    def estimate(self, tier, *args, **kwargs):
        estimate = super().estimate(tier, *args, **kwargs)
        return replace(estimate, duration=float(TIERS.index(tier)))


def test_every_log_stays_bounded_and_the_feedback_loop_still_lands():
    context = ScoopContext(chunk_size=4096, placement="adaptive", skipping=False)
    context.upload_csv("meters", "a.csv", CSV)
    relation = context.register_csv_table("t", "meters", schema=SCHEMA, format="csv")
    engine = context.placement
    engine.cost_model = _StoreFirst()
    for _ in range(LOG_LENGTH + 9):
        context.run_query("SELECT vid FROM t WHERE n < 100")
    _frame, report = context.run_query("SELECT vid FROM t WHERE n < 50")
    assert report.pushdown_requests == 1
    sandboxes = context.engine.all_sandboxes().values()
    assert len(relation.delegator.log) == LOG_LENGTH
    assert len(engine.decisions) == LOG_LENGTH
    assert max(len(sandbox.records) for sandbox in sandboxes) == LOG_LENGTH
    assert engine.decision_count == LOG_LENGTH + 10
    # The last query's own decision was fed its bytes back.
    assert engine.kept_estimates[engine.decisions[-1].signature] == pytest.approx(
        report.bytes_transferred / report.bytes_requested
    )
    assert relation.delegator.pushdown_rate() == 1.0


def test_a_learned_estimate_vetoes_a_filter_that_keeps_everything():
    """The loop lands in the decision: the first run pushes down and
    measures that its filter keeps every byte, so the second run of the
    same query is a plain scan, vetoed as not worth the storage CPU."""
    context = ScoopContext(chunk_size=4096, placement="adaptive", skipping=False)
    context.upload_csv("meters", "a.csv", CSV)
    relation = context.register_csv_table("t", "meters", schema=SCHEMA, format="csv")
    context.placement.cost_model = _StoreFirst()
    sql = "SELECT vid, n, city FROM t WHERE n >= 0"
    pushed, pushed_report = context.run_query(sql)
    assert context.explain_profile()["selectivity"]["predicted"] == 0.5  # the hint
    plain, plain_report = context.run_query(sql)
    assert [record.reason for record in relation.delegator.log] == [
        "placed:object", "veto:low_selectivity",
    ]
    assert pushed_report.pushdown_requests > 0
    assert plain_report.pushdown_requests == 0
    assert len(plain.collect()) == 300
    assert plain.collect() == pushed.collect()
    assert context.explain_profile()["selectivity"]["predicted"] == 0.0


def test_conjunct_order_refines_one_estimate():
    context = ScoopContext(chunk_size=4096, placement="object", skipping=False)
    context.upload_csv("meters", "a.csv", CSV)
    context.register_csv_table("t", "meters", schema=SCHEMA)
    for where in ("n < 100 AND city = 'city1'", "city = 'city1' AND n < 100"):
        _frame, report = context.run_query(f"SELECT vid FROM t WHERE {where}")
        assert report.pushdown_requests > 0
    engine = context.placement
    first, second = engine.decisions
    assert first.signature == second.signature
    assert list(engine.kept_estimates) == [first.signature]


# --------------------------------------------------------------------------
# The discovery walk: both formats list, read once, cache and skip alike
# --------------------------------------------------------------------------


def test_both_discoveries_walk_a_container_alike():
    """One container holding an RCF1 object, an empty object and an
    object the sized listing names without a size.  Both walks make the
    listing and then one request per object with bytes -- a HEAD for a
    one-chunk CSV object, the footer read for RCF1 -- and the skipped
    objects cost none."""
    context = ScoopContext(chunk_size=4096, skipping=False)
    context.upload_csv("src", "a.csv", "".join(f"v{i},{i}\n" for i in range(50)))
    context.convert_csv_to_columnar("src", "mixed", Schema.of("vid", "n:int"))
    context.engine.clear_policies(context.client.account, "mixed")
    context.client.put_object("mixed", "empty.rcf", b"")
    context.client.put_object("mixed", "sizeless.rcf", b"not a footer")
    listing = context.client.list_objects_sized

    def listing_without_size(container, **kwargs):
        entries = listing(container, **kwargs)
        for entry in entries:
            if entry["name"] == "sizeless.rcf":
                del entry["bytes"]
        return entries

    context.client.list_objects_sized = listing_without_size
    connector = context.connector

    def walk(discover):
        connector.skipped_objects.clear()
        connector._catalog_cache.clear()
        requests = context.client.stats.requests
        skipped = dict(_skip_counts(context))
        kinds = dict(_request_kinds(context))
        splits = discover()
        return (
            len(splits),
            context.client.stats.requests - requests,
            {
                kind: count - kinds.get(kind, 0)
                for kind, count in _request_kinds(context)
                if count != kinds.get(kind, 0)
            },
            list(connector.skipped_objects),
            sorted(connector._catalog_cache),
            {
                reason: count - skipped.get(reason, 0)
                for reason, count in _skip_counts(context)
            },
        )

    csv = walk(lambda: connector.discover_partitions("mixed", record_aligned=True))
    columnar = walk(lambda: connector.discover_columnar_partitions("mixed"))
    assert csv[0] == columnar[0] == 1
    assert (csv[1], columnar[1]) == (2, 2)
    assert csv[2] == {"listing": 1, "head": 1}
    assert columnar[2] == {"listing": 1, "footer": 1}
    assert csv[3:] == columnar[3:] == (
        [
            ("mixed", "empty.rcf", "zero-length"),
            ("mixed", "sizeless.rcf", "missing-size"),
        ],
        [("mixed", "a.rcf")],
        {"zero-length": 1, "missing-size": 1},
    )


def _request_kinds(context):
    return [
        (labels["kind"], count)
        for labels, count in context.registry.counter_series(
            "connector.discovery_requests"
        )
    ]


def _skip_counts(context):
    return [
        (labels["reason"], count)
        for labels, count in context.registry.counter_series(
            "connector.objects_skipped"
        )
    ]

