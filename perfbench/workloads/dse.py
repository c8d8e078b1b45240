"""``dse`` workload: the surrogate in the search loop, with no point revisited.

One job is (a) the paper's exhaustive ``ModelDSE`` scan over the first
768 enumerated points of the unseen kernel bicg (three 256-point
stream batches, pipeline batch 24, with the growing Pareto merge
between them) and (b) ``run_race`` at fixed budgets on atax, md-knn
and gemm-ncubed (xcvu9p) and gesummv (xcu50).  Every search gets a
fresh ``EvaluationPipeline``, as a CLI run does, so engine compilation
stays inside the timed job.  The race memo deduplicates before the
pipeline and the scan enumerates distinct points, so the point cache
is bypassed.  The scan does not depend on the seed; the races take it
as their search seed.
"""

import hashlib
import random
import time
from collections import defaultdict

from repro.designspace import build_design_space
from repro.designspace.space import point_key
from repro.errors import ReproError
from repro.dse import (
    EvaluationPipeline,
    ModelDSE,
    normalized_hypervolume,
    objective_keys_for,
    run_race,
)
from repro.hls.device import get_device
from repro.kernels import get_kernel

from fixture_lib import load_fixture
from harness import BenchmarkError, median, run_units, tail

SWEEP_KERNEL = "bicg"
SWEEP_POINTS = 768
#: (kernel, query budget, device) per race.
RACES = (
    ("atax", 256, "xcvu9p"),
    ("md-knn", 68, "xcvu9p"),
    ("gemm-ncubed", 256, "xcvu9p"),
    ("gesummv", 128, "xcu50"),
)
KERNELS = (SWEEP_KERNEL,) + tuple(kernel for kernel, _, _ in RACES)
#: Fixture sanity: share of points the classifier calls valid, per kernel.
VALID_SHARE = (0.05, 0.95)


class Setup:
    """Fixture, per-device predictors, kernel specs, spaces and scan points."""

    def __init__(self):
        predictor, _ = load_fixture()
        self.predictors = {
            "xcvu9p": predictor,
            "xcu50": predictor.for_device(get_device("xcu50")),
        }
        self.specs = {name: get_kernel(name) for name in KERNELS}
        self.spaces = {name: build_design_space(self.specs[name]) for name in KERNELS}
        self.sweep_points = list(self.spaces[SWEEP_KERNEL].enumerate(limit=SWEEP_POINTS))


def front_keys(candidates):
    return [point_key(c.point) for c in candidates]


def run_job(setup, seed, tracer=None):
    """One sweep plus the four races; returns results, stats and per-search failures."""
    span = tracer.span if tracer is not None else None
    out = {"races": {}, "stats": {}, "failed": 0, "attempted": 0,
           "times": defaultdict(float)}

    def search(name, fn):
        out["attempted"] += 1
        t0 = time.perf_counter()
        try:
            if span is None:
                return fn()
            with span(f"search.{name}", "search"):
                return fn()
        except ReproError:
            out["failed"] += 1
            return None
        finally:
            out["times"][name] += time.perf_counter() - t0

    predictor = setup.predictors["xcvu9p"]
    pipeline = EvaluationPipeline(predictor)
    dse = ModelDSE(predictor, setup.specs[SWEEP_KERNEL], setup.spaces[SWEEP_KERNEL],
                   pipeline=pipeline)
    out["sweep"] = search("sweep", lambda: dse.evaluate_stream(setup.sweep_points))
    out["stats"][SWEEP_KERNEL] = pipeline.stats
    for kernel, budget, device in RACES:
        pipeline = EvaluationPipeline(setup.predictors[device])
        out["races"][kernel] = search(
            "race",
            lambda: run_race(pipeline, setup.specs[kernel], setup.spaces[kernel],
                             budget=budget, seed=seed),
        )
        out["stats"][kernel] = pipeline.stats
    return out


def mean_hypervolume(job, bounds):
    values = []
    for kernel, _, device in RACES:
        keys = objective_keys_for(get_device(device))
        front = [c.prediction.objectives for c in job["races"][kernel].pareto]
        values.append(normalized_hypervolume(front, bounds[kernel], keys))
    return sum(values) / len(values), values


def signature(job):
    """Everything about a job's output that must repeat bit-for-bit."""
    top, pareto, explored, _ = job["sweep"]
    parts = [front_keys(top), front_keys(pareto), explored]
    for kernel, _, _ in RACES:
        race = job["races"][kernel]
        parts.append((race.queries, front_keys(race.top), front_keys(race.pareto)))
    return repr(parts)


def check(setup, job, seed, expected):
    """Correctness gates; raise :class:`BenchmarkError` on any mismatch."""
    if job["failed"]:
        return  # a failed search has no output to check; counted in ``failed``
    for kernel, stats in job["stats"].items():
        share = 1.0 - stats.cascade_skipped / stats.points
        if not VALID_SHARE[0] <= share <= VALID_SHARE[1]:
            raise BenchmarkError(
                f"fixture calls {share:.0%} of {kernel} points valid; outside "
                f"{VALID_SHARE} the cascade is degenerate"
            )
    top, pareto, explored, _ = job["sweep"]
    want = expected["sweep"]
    pareto_digest = hashlib.sha256("\n".join(front_keys(pareto)).encode()).hexdigest()
    if explored != SWEEP_POINTS or front_keys(top) != want["top"] or \
            pareto_digest != want["pareto_sha256"]:
        raise BenchmarkError("bicg scan top-M / Pareto keys differ from expected.json")
    hv, _ = mean_hypervolume(job, expected["hv_bounds"])
    if str(seed) in expected["race_hv"] and hv != expected["race_hv"][str(seed)]:
        raise BenchmarkError(f"race hypervolume {hv!r} != expected {expected['race_hv'][str(seed)]!r}")
    # Compiled predictions must equal the reference engine bit-for-bit.
    rng = random.Random(seed)
    samples = [(SWEEP_KERNEL, "xcvu9p", rng.sample(top, min(4, len(top))))]
    for kernel, _, device in RACES:
        front = job["races"][kernel].pareto
        samples.append((kernel, device, rng.sample(front, min(3, len(front)))))
    for kernel, device, candidates in samples:
        reference = EvaluationPipeline(setup.predictors[device], engine="reference")
        got = reference.predict_batch(kernel, [c.point for c in candidates])
        for candidate, ref in zip(candidates, got):
            mine = candidate.prediction
            if (mine.valid, mine.valid_prob, mine.objectives) != (ref.valid, ref.valid_prob, ref.objectives):
                raise BenchmarkError(f"{kernel}: compiled prediction differs from the reference engine")


def run(seed, seconds, trace, expected, setup_timer):
    setup = setup_timer(Setup)
    if trace:
        return run_traced(setup, seed, expected)
    jobs = run_units(seconds, lambda i: run_job(setup, seed))
    first = jobs[0][0]
    for job, _ in jobs:
        check(setup, job, seed, expected)
        if not job["failed"] and signature(job) != signature(first):
            raise BenchmarkError("two jobs with the same seed gave different results")
    walls = [wall for _, wall in jobs]
    hv, per_kernel = mean_hypervolume(first, expected["hv_bounds"]) if not first["failed"] else (0.0, [])
    return {
        "attempted": sum(job["attempted"] for job, _ in jobs),
        "failed": sum(job["failed"] for job, _ in jobs),
        "metrics": {"job_s": median(walls), "job_tail_s": tail(walls)[1]},
        "record": {
            "jobs": len(jobs),
            "job_s": walls,
            "job_tail": tail(walls)[0],
            "sweep_s": [job["times"]["sweep"] for job, _ in jobs],
            "race_s": [job["times"]["race"] for job, _ in jobs],
            "dse_hv": hv,
            "dse_hv_per_kernel": per_kernel,
        },
    }


def run_traced(setup, seed, expected):
    from layers import instrument, layer_metrics, pipeline_metrics, probe_front_end
    from tracing import Tracer

    run_job(setup, seed)  # warm-up: the first job in a process pays one-off costs
    t0 = time.perf_counter()
    baseline = run_job(setup, seed)
    untraced = time.perf_counter() - t0
    check(setup, baseline, seed, expected)

    tracer = Tracer()
    instrument(tracer)
    try:
        with tracer.root() as root:
            job = run_job(setup, seed, tracer)
    finally:
        tracer.restore()
    check(setup, job, seed, expected)
    if signature(job) != signature(baseline):
        raise BenchmarkError("traced job differs from the untraced job")
    stats = list(job["stats"].values())
    race_stats = [job["stats"][kernel] for kernel, _, _ in RACES]
    race_wall = tracer.total_s.get("search.race", 0.0)
    hv, _ = mean_hypervolume(job, expected["hv_bounds"])
    probes = probe_front_end(KERNELS, devices=("xcvu9p", "xcu50"))
    extra = dict(pipeline_metrics(stats))
    extra.update({
        "search.strategy_s": race_wall - sum(s.wall_seconds for s in race_stats),
        "search.queries": sum(job["races"][k].queries for k, _, _ in RACES) + SWEEP_POINTS,
        "search.front_size": len(job["sweep"][1]) + sum(len(job["races"][k].pareto) for k, _, _ in RACES),
        "search.sweep_s": tracer.total_s.get("search.sweep", 0.0),
        "search.race_s": race_wall,
        "search.hv": hv,
    })
    metrics = layer_metrics(tracer, root.wall, untraced, probes, extra)
    return {
        "attempted": baseline["attempted"] + job["attempted"],
        "failed": baseline["failed"] + job["failed"],
        "metrics": metrics,
        "record": {"untraced_job_s": untraced, "traced_job_s": root.wall},
    }
