"""The one pushdown decision, cell by cell, and the one discovery walk.

Every scan of data in a container -- CSV, RCF1, and the CSV GROUP-BY
task -- takes its pushdown decision in
:meth:`repro.core.delegator.AnalyticsDelegator.delegate`.  The table
below drives all three through every combination of controller, engine
and task and pins what comes out (the task the scan carries, the
record's reason code) *and who was asked* (how many decisions the
controller and the engine logged): a no-op task skips the controller
but still meets the engine, a vetoed task never reaches the engine, the
aggregation task is never a no-op.  CSV and RCF1 must fill every cell
identically.
"""

import itertools

import pytest

from repro.core import ScoopContext
from repro.core.agg_pushdown import plan_aggregation_pushdown
from repro.core.delegator import LOG_LENGTH, AnalyticsDelegator
from repro.core.policies import AdaptivePushdownController
from repro.core.pushdown import PushdownTask
from repro.obs.metrics import get_registry
from repro.placement import PlacementEngine
from repro.spark.columnar_source import ColumnarRelation
from repro.spark.csv_source import CsvRelation
from repro.sql.filters import LessThan
from repro.sql.parser import parse_query
from repro.sql.types import Schema

SCHEMA = Schema.of("vid", "n:int", "city")
CSV = "".join(f"v{i % 7},{i},city{i % 3}\n" for i in range(300))

KINDS = ("csv", "columnar", "groupby")
CONTROLLERS = ("none", "allow", "veto")
ENGINES = ("none", "object", "proxy", "compute", "adaptive")
TASKS = ("noop", "filtering")


@pytest.fixture(scope="module")
def ctx():
    context = ScoopContext(chunk_size=4096, skipping=False, placement=None)
    context.upload_csv("meters", "a.csv", CSV)
    context.convert_csv_to_columnar("meters", "meters-rcf", SCHEMA)
    return context


def _controller(name):
    if name == "none":
        return None
    cpu = 0.0 if name == "allow" else 0.99
    return AdaptivePushdownController(storage_cpu_probe=lambda: cpu)


def _scan(ctx, kind, controller, engine, task):
    """Build the relation of one cell and the scan its query gets."""
    options = dict(schema=SCHEMA, controller=controller, placement=engine)
    filters = [LessThan("n", 100)] if task == "filtering" else []
    if kind == "columnar":
        relation = ColumnarRelation(
            ctx.spark_context, ctx.connector, "meters-rcf", **options
        )
        return relation, relation.build_scan_filtered(SCHEMA.names, filters)
    relation = CsvRelation(
        ctx.spark_context, ctx.connector, "meters", agg_pushdown=True, **options
    )
    if kind == "csv":
        return relation, relation.build_scan_filtered(SCHEMA.names, filters)
    where = " WHERE n < 100" if filters else ""
    query = parse_query(f"SELECT city, COUNT(*) FROM t{where} GROUP BY city")
    plan = plan_aggregation_pushdown(query, SCHEMA, relation)
    return relation, relation.build_aggregation_scan(plan)


def _cell(ctx, kind, controller_name, engine_name, task):
    """``(carried, reason, controller decisions, engine decisions)``:
    ``carried`` is the tier of the task the scan carries, ``None`` for a
    plain scan (for GROUP BY: no aggregation scan at all)."""
    controller = _controller(controller_name)
    engine = None if engine_name == "none" else PlacementEngine(mode=engine_name)
    relation, scan = _scan(ctx, kind, controller, engine, task)
    carried = None
    if scan is not None and scan.task is not None:
        carried = scan.task.run_on
    (record,) = relation.delegator.log
    assert record.pushed_down == (carried is not None)
    return (
        carried,
        record.reason,
        len(controller.decisions) if controller else 0,
        len(engine.decisions) if engine else 0,
    ), engine


def _expected(kind, controller, engine, task, adaptive_tier):
    """The decision table, written out: who is asked, in which order."""
    noop = task == "noop" and kind != "groupby"  # aggregation always reduces
    asked_controller = controller != "none" and not noop
    vetoed = asked_controller and controller == "veto"
    asked_engine = engine != "none" and not vetoed
    tier = adaptive_tier if engine == "adaptive" else engine
    if vetoed:
        carried, reason = None, "controller:cpu_ceiling"
    elif noop:
        carried, reason = None, "noop"
    elif asked_engine:
        carried, reason = (None if tier == "compute" else tier), f"placed:{tier}"
    elif asked_controller:
        carried, reason = "object", "controller:idle"
    else:
        carried, reason = "object", "static"
    return carried, reason, int(asked_controller), int(asked_engine)


@pytest.mark.parametrize(
    "kind,controller,engine,task",
    list(itertools.product(KINDS, CONTROLLERS, ENGINES, TASKS)),
)
def test_decision_table(ctx, kind, controller, engine, task):
    got, used_engine = _cell(ctx, kind, controller, engine, task)
    adaptive_tier = None
    if used_engine is not None and used_engine.decisions:
        adaptive_tier = used_engine.decisions[-1].tier
    assert got == _expected(kind, controller, engine, task, adaptive_tier)


@pytest.mark.parametrize(
    "controller,engine,task",
    list(itertools.product(CONTROLLERS, ENGINES, TASKS)),
)
def test_csv_and_rcf1_fill_every_cell_identically(ctx, controller, engine, task):
    csv, _ = _cell(ctx, "csv", controller, engine, task)
    columnar, _ = _cell(ctx, "columnar", controller, engine, task)
    assert csv == columnar


def test_a_relation_switch_declines_without_asking_anyone(ctx):
    controller = _controller("veto")
    engine = PlacementEngine(mode="object")
    relation = CsvRelation(
        ctx.spark_context, ctx.connector, "meters", schema=SCHEMA,
        pushdown=False, controller=controller, placement=engine,
    )
    scan = relation.build_scan_filtered(["vid"], [LessThan("n", 100)])
    assert scan.task is None
    query = parse_query("SELECT city, COUNT(*) FROM t GROUP BY city")
    plan = plan_aggregation_pushdown(query, SCHEMA, relation)
    assert relation.build_aggregation_scan(plan) is None
    assert [record.reason for record in relation.delegator.log] == [
        "pushdown_off", "agg_pushdown_off",
    ]
    assert not controller.decisions and not engine.decisions


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
        for labels, count in get_registry().counter_series("core.delegations")
    }


def test_the_log_is_bounded():
    delegator = AnalyticsDelegator()
    task = PushdownTask(schema=SCHEMA, filters=[LessThan("n", 1)])
    for _ in range(LOG_LENGTH + 10):
        delegator.delegate(task)
    assert len(delegator.log) == LOG_LENGTH
    assert delegator.pushdown_rate() == 1.0


# --------------------------------------------------------------------------
# The discovery walk: both formats list, HEAD, cache and skip alike
# --------------------------------------------------------------------------


def test_both_discoveries_walk_a_container_alike():
    """One container holding an RCF1 object, an empty object and an
    object whose HEAD lacks ``content-length``.  The request counts are
    the parent commit's: one listing and one HEAD per object, plus the
    one footer read only RCF1 discovery makes."""
    context = ScoopContext(chunk_size=4096, skipping=False)
    context.upload_csv("src", "a.csv", "".join(f"v{i},{i}\n" for i in range(50)))
    context.convert_csv_to_columnar("src", "mixed", Schema.of("vid", "n:int"))
    context.engine.clear_policies(context.client.account, "mixed")
    context.client.put_object("mixed", "empty.rcf", b"")
    context.client.put_object("mixed", "headless.rcf", b"not a footer")
    head_object = context.client.head_object

    def head_without_length(container, name):
        headers = head_object(container, name)
        if name == "headless.rcf":
            del headers["content-length"]
        return headers

    context.client.head_object = head_without_length
    connector = context.connector

    def walk(discover):
        connector.skipped_objects.clear()
        connector._catalog_cache.clear()
        requests = context.client.stats.requests
        skipped = dict(_skip_counts())
        splits = discover()
        return (
            len(splits),
            context.client.stats.requests - requests,
            list(connector.skipped_objects),
            sorted(connector._catalog_cache),
            {
                reason: count - skipped.get(reason, 0)
                for reason, count in _skip_counts()
            },
        )

    csv = walk(lambda: connector.discover_partitions("mixed", record_aligned=True))
    columnar = walk(lambda: connector.discover_columnar_partitions("mixed"))
    assert csv[0] == columnar[0] == 1
    assert (csv[1], columnar[1]) == (4, 5)
    assert csv[2:] == columnar[2:] == (
        [
            ("mixed", "empty.rcf", "zero-length"),
            ("mixed", "headless.rcf", "missing-content-length"),
        ],
        [("mixed", "a.rcf"), ("mixed", "empty.rcf"), ("mixed", "headless.rcf")],
        {"zero-length": 1, "missing-content-length": 1},
    )


def _skip_counts():
    return [
        (labels["reason"], count)
        for labels, count in get_registry().counter_series(
            "connector.objects_skipped"
        )
    ]

