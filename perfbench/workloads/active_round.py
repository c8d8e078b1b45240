"""``active_round`` workload: the write side -- label, fine-tune, publish.

One job is one ``ActiveLoop`` round over bicg and gesummv, starting
from the fixture predictor and its scale-0.1 database and publishing
to a fresh ``ModelRegistry``: a baseline held-out evaluation, a
surrogate scan of 100 seeded points per kernel, 15 oracle labels per
kernel, a one-epoch warm-start fine-tune of all three models with
autograd backward, a database save and an artifact publish.  The seed
is the loop seed (held-out set, scan pool, training order).
"""

import os
import shutil
import time

from repro.errors import ReproError
from repro.explorer.database import Database
from repro.loop.active import ActiveLoop, LoopConfig
from repro.serve.registry import ModelRegistry, load_artifact, verify_artifact

from fixture_lib import ARTIFACT_DIR, DATABASE_PATH, load_fixture
from harness import WORK_DIR, BenchmarkError, median, run_units, tail

KERNELS = ("bicg", "gesummv")
ROUND = {"label_budget": 15, "scan": 100, "eval_points": 40, "epochs": 1}


def setup():
    """Verify the fixture; each job then loads its own mutable copy."""
    load_fixture(with_database=True)


def run_job(seed, index, tracer=None):
    workdir = WORK_DIR / f"active-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = {"attempted": 1, "failed": 0, "rmse": None, "published": False}
    try:
        database = Database.load(DATABASE_PATH)
        predictor = load_artifact(ARTIFACT_DIR, database=database)
        registry = ModelRegistry(workdir / "registry")
        loop = ActiveLoop(
            predictor, database, registry,
            LoopConfig(kernels=KERNELS, rounds=1, seed=seed, **ROUND),
            workdir / "database.json", workdir / "state.json",
        )
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = loop.run()
            else:
                with tracer.root() as root, tracer.span("loop.run", "loop"):
                    result = loop.run()
                out["root_wall"] = root.wall
        except ReproError:
            out["failed"] = 1
            return out
        finally:
            out["wall"] = time.perf_counter() - t0
        out["rmse"] = result.rmse_trajectory()
        out["published"] = bool(result.rounds and result.rounds[0]["accepted"])
        current = registry.current()
        verify_artifact(current.path)
        if out["published"] and current.version != result.rounds[0]["artifact_version"]:
            raise BenchmarkError("registry current pointer is not the published round")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def check(jobs, seed, expected):
    trajectories = {tuple(job["rmse"]) for job in jobs if job["rmse"] is not None}
    if len(trajectories) > 1:
        raise BenchmarkError("two rounds with the same seed gave different RMSE trajectories")
    want = expected.get("rmse", {}).get(str(seed))
    if want is not None and trajectories and list(trajectories.pop()) != want:
        raise BenchmarkError(f"RMSE trajectory differs from expected {want}")


def run(seed, seconds, trace, expected, setup_timer):
    setup_timer(setup)
    if trace:
        return run_traced(seed, expected)
    jobs = [job for job, _ in run_units(seconds, lambda i: run_job(seed, i))]
    check(jobs, seed, expected)
    walls = [job["wall"] for job in jobs]
    return {
        "attempted": sum(job["attempted"] for job in jobs),
        "failed": sum(job["failed"] for job in jobs),
        "metrics": {"job_s": median(walls), "job_tail_s": tail(walls)[1]},
        "record": {
            "jobs": len(jobs),
            "job_s": walls,
            "job_tail": tail(walls)[0],
            "round_rmse": jobs[0]["rmse"],
            "published": jobs[0]["published"],
        },
    }


def run_traced(seed, expected):
    from layers import instrument, layer_metrics, pipeline_metrics, probe_front_end
    from tracing import Tracer

    run_job(seed, 0)  # warm-up: the first job in a process pays one-off costs
    baseline = run_job(seed, 1)
    tracer = Tracer()
    pipelines = instrument(tracer)
    try:
        job = run_job(seed, 2, tracer)
    finally:
        tracer.restore()
    check([baseline, job], seed, expected)
    probes = probe_front_end(KERNELS)
    extra = pipeline_metrics([p.stats for p in pipelines])
    extra["model.round_rmse"] = job["rmse"][-1] if job["rmse"] else 0.0
    return {
        "attempted": baseline["attempted"] + job["attempted"],
        "failed": baseline["failed"] + job["failed"],
        "metrics": layer_metrics(tracer, job["root_wall"], baseline["wall"], probes, extra),
        "record": {"untraced_job_s": baseline["wall"], "traced_job_s": job["root_wall"]},
    }
