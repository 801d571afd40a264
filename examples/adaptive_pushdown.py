#!/usr/bin/env python3
"""Adaptive pushdown: gold/bronze tenants under storage load (Sec. VII).

The paper's discussion section sketches a Crystal-style control loop:
"under peak workloads and CPU/parallelism constraints at the object
store, an administrator may decide that only 'gold' tenants enjoy the
pushdown service, whereas 'bronze' tenants will ingest data in the
traditional way", with filter effectiveness "modeled -- e.g., by
approximating the data selectivity".

This example wires the AdaptivePushdownController to a live storage-CPU
probe and shows three behaviours:

1. everyone pushes down while the store is idle;
2. bronze (then silver) tenants are shed as CPU pressure rises;
3. the selectivity model learns that a filter is not worth pushing.

Run:  python examples/adaptive_pushdown.py
"""

from repro import AdaptivePushdownController, AnalyticsDelegator
from repro.core.policies import SelectivityModel, TenantClass, TenantPolicy
from repro.experiments import render_table
from repro.gridpocket import METER_SCHEMA


QUERY = (
    "SELECT vid, sum(index) as total FROM largeMeter "
    "WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01%' GROUP BY vid"
)


def decide_for_all(controller: AnalyticsDelegator, tenants):
    row = []
    for tenant in tenants:
        task = controller.make_task(QUERY, METER_SCHEMA, tenant=tenant)
        row.append("pushdown" if task is not None else "plain ingest")
    return row


def main() -> None:
    # A fake probe we can turn like a dial; in ScoopContext this would be
    # backed by the storlet sandboxes / metrics collector.
    pressure = {"cpu": 0.1}
    controller = AdaptivePushdownController(
        storage_cpu_probe=lambda: pressure["cpu"]
    )
    for name, tenant_class in [
        ("gold-corp", TenantClass.GOLD),
        ("silver-labs", TenantClass.SILVER),
        ("bronze-free", TenantClass.BRONZE),
    ]:
        controller.set_policy(TenantPolicy(name, tenant_class))
    delegator = AnalyticsDelegator(controller)

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
    for record in list(delegator.log)[-3:]:
        print(f"  {record.tenant:<12} pushed={record.pushed_down} ({record.reason})")

    # -- the selectivity model learning loop ---------------------------------
    print("\nlearning that a filter is not worth pushing:")
    pressure["cpu"] = 0.1
    model = SelectivityModel(prior=0.9, smoothing=0.5)
    learner = AdaptivePushdownController(
        storage_cpu_probe=lambda: pressure["cpu"], selectivity_model=model
    )
    learning_delegator = AnalyticsDelegator(learner)
    task = learning_delegator.make_task(QUERY, METER_SCHEMA, tenant="t")
    assert task is not None
    for round_number in range(1, 6):
        # Observed reality: the filter discards almost nothing (2%).
        learner.observe_invocation("t", task, bytes_in=1000, bytes_out=980)
        estimate = model.estimate("t", task)
        decision = learner.decide("t", task)
        print(
            f"  round {round_number}: estimated selectivity "
            f"{estimate * 100:5.1f}% -> "
            f"{'push down' if decision.push_down else 'ingest plainly'}"
        )


if __name__ == "__main__":
    main()
