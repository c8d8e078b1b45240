"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload dse --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the repo
root; ``perfbench/README.md`` explains each one and what every layer
metric should move.  The last line of standard output is the result
object; the line before it (``record {...}``) stamps the machine, the
seed and the samples behind every number.  A failed correctness gate
exits 1 and prints no result; a checkout without the program exits 2.
"""

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("dse", "serve", "oracle", "active_round")
#: A traced run fails when more than this share of its wall time is in no layer.
UNACCOUNTED_LIMIT = 0.10


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: no program to measure here (needs src/repro and "
              "BENCHMARK.json beside perfbench/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    import harness

    workload = importlib.import_module(f"workloads.{args.workload}")
    expected = json.loads((HERE / "expected.json").read_text()).get(args.workload, {})
    setup_walls = []

    def setup_timer(factory, repeats=3):
        """Build the workload's set-up ``repeats`` times; keep the last."""
        setup_walls.append(harness.process_age())  # process start -> imports done
        for _ in range(repeats):
            t0 = time.perf_counter()
            built = factory()
            setup_walls.append(time.perf_counter() - t0)
        return built

    try:
        out = workload.run(args.seed, args.seconds, bool(args.trace), expected, setup_timer)
    except harness.BenchmarkError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = out["attempted"], out["failed"]
    metrics = dict(out["metrics"])
    if args.trace and metrics["trace.unaccounted_ratio"] > UNACCOUNTED_LIMIT:
        print(f"perfbench: {metrics['trace.unaccounted_ratio']:.1%} of the traced "
              f"wall time is in no layer (limit {UNACCOUNTED_LIMIT:.0%})", file=sys.stderr)
        return 1
    record = dict(out["record"])
    if not args.trace:
        metrics["setup_s"] = setup_walls[0] + harness.median(setup_walls[1:])
        metrics.setdefault("peak_rss_mb", harness.vm_hwm_mb())
        metrics["success_rate"] = (attempted - failed) / attempted
        record["setup_s"] = setup_walls
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in metrics and not args.trace]
    unknown = [n for n in metrics if n not in names]
    if missing or unknown:
        print(f"perfbench: metric mismatch, missing {missing}, undeclared {unknown}",
              file=sys.stderr)
        return 1
    metrics = {name: metrics.get(name, 0.0) for name in names}
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  machine=harness.fingerprint(args.seed))
    harness.emit(record, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
