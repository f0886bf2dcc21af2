"""Scenario sweep API: fan parameter grids through the run cache.

Sweeps a small load x seed grid through the shared RunCache (the same
machinery the registered experiments use), evaluates one cached run
under several thresholds in a plain loop, and shows the stable JSON
form every experiment result carries.

Run:  PYTHONPATH=src python examples/scenario_sweep.py
"""

import json

from repro.experiments import registry
from repro.experiments.common import (
    RunCache,
    labelled_evaluations,
    mean_delivery_rate,
    sweep,
)


def main() -> None:
    # Every cache entry is keyed by its full frozen SimulationConfig,
    # so load, seed, duration, ... can all be swept without aliasing;
    # jobs=2 shards uncached points across worker processes.
    cache = RunCache(duration_s=4.0, seed=42, jobs=2)

    # --- 1. a config-axis sweep: load x seed -----------------------------
    print("load x seed sweep (mean per-link delivery rate):")
    grid_sweep = sweep(
        loads=(3500.0, 13800.0), seeds=(42, 43), carrier_sense=False
    )
    for scenario, result in grid_sweep.run(cache):
        evals = labelled_evaluations(result)
        ppr = mean_delivery_rate(evals["ppr, postamble"])
        status_quo = mean_delivery_rate(evals["packet_crc, no postamble"])
        print(
            f"  {scenario.label():<42} "
            f"ppr={ppr:.3f}  status_quo={status_quo:.3f}"
        )

    # --- 2. an evaluation knob: loop eta over one cached run -------------
    # eta does not change what is simulated, so it is no sweep axis:
    # one cache.get, evaluated under each threshold.
    print("\neta loop over one cached run (no new simulation):")
    result = cache.get(load=13800.0, carrier_sense=False)
    for eta in (2, 6, 10):
        evals = labelled_evaluations(result, eta=eta)
        ppr = mean_delivery_rate(evals["ppr, postamble"])
        print(f"  eta={eta:<3} ppr mean delivery = {ppr:.3f}")

    # --- 3. registered experiments and their JSON schema ------------------
    # The registry knows every experiment's declared simulation points
    # and hands the body those runs from the cache (fig16 declares
    # none); results serialize to a stable schema for downstream
    # analysis.
    spec = registry.get_spec("fig16")
    result = spec.run(cache)
    document = json.dumps(result.to_dict(), sort_keys=True)
    print(f"\n{spec.experiment_id}: {spec.title}")
    print(f"  declared points : {len(spec.points)}")
    print(f"  shape checks    : "
          f"{sum(c.passed for c in result.shape_checks)}"
          f"/{len(result.shape_checks)} passed")
    print(f"  JSON document   : {len(document)} bytes, "
          f"schema v{result.to_dict()['schema_version']}")


if __name__ == "__main__":
    main()
