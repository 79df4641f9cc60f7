#!/usr/bin/env python3
"""Campaigns: many seeded trials, one verdict, replayable artifacts.

Builds a campaign config programmatically (the CLI reads the same schema
from a JSON file), runs it, prints the aggregate, and shows the query audit
that checks measured reads against each run's ceiling: the read bound of the
plan the run executes, which is marked vacuous when it is n or more.
"""

import tempfile
from pathlib import Path

from compest.campaign import CampaignConfig, audit_queries, run_campaign, write_result

config = CampaignConfig(
    estimator="rle-additive",
    params={"epsilon": 0.05},
    instance={"kind": "builtin", "name": "random-binary", "n": 100_000, "seed": 1},
    trials=25,
    base_seed=2024,
    min_success_rate=0.9,
)

result = run_campaign(config)
print(f"estimator      : {config.estimator} {config.params}")
print(f"trials         : {config.trials}")
print(f"success rate   : {result.success_rate:.2f} (threshold {config.min_success_rate})")
print(f"mean queries   : {result.mean_queries:.0f}")
print(f"verdict        : {'PASS' if result.passed else 'FAIL'}")

out = Path(tempfile.mkdtemp()) / "demo-campaign"
csv_path, json_path = write_result(result, str(out))
print(f"artifacts      : {csv_path}, {json_path}")
print("first rows     :")
for line in result.to_csv_text().splitlines()[:4]:
    print(f"   {line}")

print("\nquery audit (measured reads vs the read bound of the run's plan):")
entries = [
    {
        "estimator": "rle-additive",
        "n": 100_000,
        "epsilon": 0.05,
        "sigma": 2,
        "queries_used": row["queries"],
    }
    for row in result.rows[:5]
]
for row in audit_queries(entries):
    verdict = "ok" if row.within else "OVER"
    if row.vacuous:
        verdict += f" (vacuous: the ceiling is not below n = {row.n})"
    print(f"   {row.label}: {row.queries_used} <= {row.ceiling:.0f}  {verdict}")
