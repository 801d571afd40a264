#!/usr/bin/env python3
"""Adaptive pushdown: gold/bronze tenants under storage load (Sec. VII).

The paper's discussion section sketches a Crystal-style control loop:
"under peak workloads and CPU/parallelism constraints at the object
store, an administrator may decide that only 'gold' tenants enjoy the
pushdown service, whereas 'bronze' tenants will ingest data in the
traditional way", with filter effectiveness "modeled -- e.g., by
approximating the data selectivity".

Both halves are the placement engine's one decision:

1. tenant classes: the engine reads a storage-CPU dial and sheds bronze,
   then silver tenants as the dial turns up, while gold keeps pushdown;
2. selectivity: real queries on a ScoopContext feed their byte counts
   back, and a filter found to keep everything stops being pushed down.

Run:  python examples/adaptive_pushdown.py
"""

from repro import AnalyticsDelegator, ScoopContext
from repro.experiments import render_table
from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset
from repro.placement import (
    PlacementCostModel,
    PlacementEngine,
    TenantClass,
    TenantPolicy,
)

QUERY = (
    "SELECT vid, sum(index) as total FROM largeMeter "
    "WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01%' GROUP BY vid"
)

#: How much larger than this example's table the cost model prices each
#: scan: the paper's tables are tens of gigabytes, where pushing a
#: filter to the object nodes beats ingesting everything.
PAPER_SCALE = 1e5


class PaperScaleCosts(PlacementCostModel):
    """The calibrated cost model, pricing every scan at paper scale."""

    def estimate(self, tier, input_bytes, *args, **kwargs):
        return super().estimate(tier, input_bytes * PAPER_SCALE, *args, **kwargs)


def decide_for_all(delegator: AnalyticsDelegator, tenants):
    row = []
    for tenant in tenants:
        task = delegator.make_task(QUERY, METER_SCHEMA, tenant=tenant)
        row.append("pushdown" if task is not None else "plain ingest")
    return row


def shed_tenants() -> None:
    # A probe we can turn like a dial; a ScoopContext offers a live one,
    # ``ctx.placement.storage_cpu = ctx.storage_cpu_utilization``.
    pressure = {"cpu": 0.1}
    engine = PlacementEngine(mode="object", storage_cpu=lambda: pressure["cpu"])
    for name, tenant_class in [
        ("gold-corp", TenantClass.GOLD),
        ("silver-labs", TenantClass.SILVER),
        ("bronze-free", TenantClass.BRONZE),
    ]:
        engine.set_policy(TenantPolicy(name, tenant_class))
    delegator = AnalyticsDelegator(engine)

    tenants = ["gold-corp", "silver-labs", "bronze-free"]
    rows = []
    for cpu in (0.1, 0.65, 0.9):
        pressure["cpu"] = cpu
        rows.append([f"{cpu * 100:.0f}%"] + decide_for_all(delegator, tenants))
    render_table(
        "Who keeps the pushdown service as storage CPU rises",
        ["storage CPU"] + tenants,
        rows,
    )
    print("decision log (last three):")
    for record, decision in zip(
        list(delegator.log)[-3:], list(engine.decisions)[-3:]
    ):
        print(f"  {record.tenant:<12} {record.reason:<18} {decision.reason}")


def learn_selectivity() -> None:
    print("\nlearning from real queries which filters are worth pushing:")
    ctx = ScoopContext(chunk_size=64 * 1024, placement="adaptive")
    ctx.placement.cost_model = PaperScaleCosts()
    upload_dataset(
        ctx.client, "meters", DatasetSpec(meters=20, intervals=100, objects=2)
    )
    relation = ctx.register_csv_table(
        "meters", "meters", schema=METER_SCHEMA, format="csv"
    )
    queries = {
        "selective": "SELECT vid, index FROM meters WHERE city = 'Rotterdam'",
        "keeps all": "SELECT * FROM meters WHERE index >= 0",
    }
    rows = []
    for label, sql in queries.items():
        answers = []
        for round_number in range(1, 4):
            frame, report = ctx.run_query(sql)
            answers.append(frame.collect())
            predicted = ctx.explain_profile()["selectivity"]["predicted"]
            rows.append(
                [
                    label,
                    round_number,
                    f"{predicted * 100:.1f}%",
                    f"{report.data_selectivity * 100:.1f}%",
                    relation.delegator.log[-1].reason,
                ]
            )
        # Pushed down or vetoed, the query answers the same rows.
        assert all(answer == answers[0] for answer in answers)
    render_table(
        "Estimated vs achieved selectivity, run by run",
        ["query", "run", "estimated", "achieved", "decision"],
        rows,
    )


def main() -> None:
    shed_tenants()
    learn_selectivity()


if __name__ == "__main__":
    main()
