"""Regenerate ``perfbench/expected.json``, the stored correctness expectations.

    python3 perfbench/make_expected.py                 # all workloads, seeds 0-15
    python3 perfbench/make_expected.py --workloads oracle --seeds 4

Run it only when a change is meant to alter results; the gates in
``run.py`` compare every run against this file.  Stored per seed:

- ``dse``: the bicg scan's top-M keys and Pareto-key digest (seed
  independent), hypervolume reference bounds per race kernel (from the
  union of the race fronts of seeds 0-7), and the mean race
  hypervolume per seed;
- ``oracle``: the digest of every HLS result of one job;
- ``active_round``: the held-out RMSE trajectory of one round.

Seeds outside the stored range are still checked for bit-identical
repeats within a run and against the reference engine.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

BOUND_SEEDS = range(8)


def dse_expectations(seeds):
    from repro.dse import objective_keys_for, reference_point
    from repro.hls.device import get_device

    from workloads import dse

    setup = dse.Setup()
    jobs = {}
    for seed in sorted(set(seeds) | set(BOUND_SEEDS)):
        jobs[seed] = dse.run_job(setup, seed)
        print(f"dse seed {seed}: {dict(jobs[seed]['times'])}", flush=True)
    top, pareto, _, _ = jobs[0]["sweep"]
    bounds = {}
    for kernel, _, device in dse.RACES:
        keys = objective_keys_for(get_device(device))
        fronts = [[c.prediction.objectives for c in jobs[s]["races"][kernel].pareto]
                  for s in BOUND_SEEDS]
        bounds[kernel] = {k: list(v) for k, v in reference_point(fronts, keys).items()}
    return {
        "sweep": {
            "top": dse.front_keys(top),
            "pareto_sha256": hashlib.sha256("\n".join(dse.front_keys(pareto)).encode()).hexdigest(),
            "pareto_size": len(pareto),
        },
        "hv_bounds": bounds,
        "race_hv": {str(s): dse.mean_hypervolume(jobs[s], bounds)[0] for s in seeds},
    }


def oracle_expectations(seeds):
    from workloads import oracle

    digests = {}
    for seed in seeds:
        digests[str(seed)] = oracle.run_job(oracle.Setup(seed), seed)["digest"]
        print(f"oracle seed {seed}: {digests[str(seed)]}", flush=True)
    return {"digest": digests}


def active_expectations(seeds):
    from workloads import active_round

    rmse = {}
    for seed in seeds:
        rmse[str(seed)] = active_round.run_job(seed, 0)["rmse"]
        print(f"active_round seed {seed}: {rmse[str(seed)]}", flush=True)
    return {"rmse": rmse}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16, help="store seeds 0..N-1")
    parser.add_argument("--workloads", nargs="*", default=["dse", "oracle", "active_round"])
    args = parser.parse_args()
    seeds = list(range(args.seeds))
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    builders = {"dse": dse_expectations, "oracle": oracle_expectations,
                "active_round": active_expectations}
    for name in args.workloads:
        expected[name] = builders[name](seeds)
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
