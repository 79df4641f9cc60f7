"""Regenerate golden_lz.json: exact LZ costs of the lz-sampled and
oracle-campaign inputs.

    PYTHONPATH=src python3 bench/make_golden.py

Covers every seed class of the full-size workloads. Each cost comes from the
benchmark's own reference and is cross-checked against
``compest.exact_lz_cost`` before it is pinned.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from compest import exact_lz_cost  # noqa: E402

import reference  # noqa: E402
from workloads import GOLDEN_SEED_CLASSES, LzSampled, OracleCampaign  # noqa: E402


def lz_inputs(cls: int):
    """(description, array) for every LZ input of seed class ``cls``."""
    for k, inputs in enumerate(LzSampled.inputs(cls, smoke=False)):
        for name, arr in inputs.items():
            yield f"lz-sampled class={cls} set={k} {name} n={arr.size}", arr
    for config in OracleCampaign.configs(cls, smoke=False):
        if config.estimator == "lz":
            for trial in range(config.trials):
                arr = OracleCampaign.instance(config, trial).materialize()
                yield f"oracle-campaign {config.instance['name']} n={arr.size} " \
                      f"base_seed={config.base_seed} trial={trial}", arr


def main() -> int:
    costs, inputs = {}, {}
    for cls in range(GOLDEN_SEED_CLASSES):
        for about, arr in lz_inputs(cls):
            key = reference.digest(arr)
            if key in costs:
                continue
            cost = reference.lz_phrase_count(arr)
            program = exact_lz_cost(arr).total_cost
            if cost != program:
                print(f"MISMATCH {about}: reference {cost}, compest {program}", file=sys.stderr)
                return 1
            costs[key] = cost
            inputs[key] = about
            print(f"{key} {cost:7d} {about}", flush=True)
    out = {"costs": costs, "inputs": inputs}
    reference.GOLDEN_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
