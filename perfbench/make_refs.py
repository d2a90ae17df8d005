"""Write ``references.json``: oracle digests for every reference seed.

The references come from the per-window oracle path: the object-path
generator inside the scenario builders and ``process_window`` over
``window_trace_by_samples`` windows.  For each seed in
``REFERENCE_SEEDS`` and each scenario family it stores, at 21 and at 7
days, the pipeline digest (fleet tenants are checked against the 21-day
solo digest) and the hash of the summarized outcome.

Run from the repository root (about two minutes, one process per seed)::

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.experiments import _SCENARIO_BUILDERS, summarize_run  # noqa: E402

from workloads import (  # noqa: E402
    CAMPAIGN_DAYS,
    FAMILIES,
    REFERENCE_FILE,
    REFERENCE_SEEDS,
    SCENARIO_DAYS,
    outcome_hash,
    reference_key,
)


def references_for_seed(seed: int):
    outcomes = {}
    for n_days in (SCENARIO_DAYS, CAMPAIGN_DAYS):
        for family in FAMILIES:
            key = reference_key(family, n_days, seed)
            run = _SCENARIO_BUILDERS[family](n_days=n_days, seed=seed)
            digest = run.pipeline.digest()
            outcomes[key] = {
                "digest": digest,
                "outcome": outcome_hash(summarize_run(run)),
            }
    return outcomes


def main() -> None:
    payload = {
        "format": 1,
        "reference_seeds": list(REFERENCE_SEEDS),
        "outcomes": {},
    }
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(len(REFERENCE_SEEDS), mp_context=context) as pool:
        for outcomes in pool.map(references_for_seed, REFERENCE_SEEDS):
            payload["outcomes"].update(outcomes)
    payload["outcomes"] = dict(sorted(payload["outcomes"].items()))
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
