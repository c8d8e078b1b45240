"""``oracle`` workload: the simulated HLS tool as ground truth, no surrogate.

One job is (a) Table 1 database generation (``generate_database``,
scale 1.0, the nine training kernels, about 4,340 syntheses through
the bottleneck, hybrid and random explorers) and (b) labelling a
seeded uniform sample of 150 points on each of eight kernels, on two
FPGAs and the CGRA.  Each job uses fresh, empty tool caches, so every
distinct point is synthesized; repeats inside the uniform sample hit
the tool's memo.  The surrogate layers are not reached: a change to
them should leave this workload unchanged.
"""

import hashlib
import random
import time

from repro.designspace import build_design_space
from repro.errors import ReproError
from repro.explorer.runner import generate_database
from repro.hls.device import get_device
from repro.hls.tool import MerlinHLSTool
from repro.kernels import TRAINING_KERNELS, get_kernel

from harness import BenchmarkError, median, run_units, tail

DB_SCALE = 1.0
LABEL_KERNELS = ("gemm-blocked", "syrk", "gemm-ncubed", "doitgen", "2mm", "stencil", "atax", "nw")
LABEL_DEVICES = ("xcvu9p", "xczu9eg", "cgra4x4")
LABEL_POINTS = 150


class Setup:
    """Parsed kernels (their analyses are cached on the specs) and label samples."""

    def __init__(self, seed):
        for name in TRAINING_KERNELS:
            get_kernel(name).analysis
        self.specs = {name: get_kernel(name) for name in LABEL_KERNELS}
        self.samples = {
            name: build_design_space(spec).sample(random.Random(f"{seed}:{name}"), LABEL_POINTS)
            for name, spec in self.specs.items()
        }


def _fold(digest, *fields):
    digest.update(repr(fields).encode())


def run_job(setup, seed, span=None):
    """Database generation plus labelling; returns counts and a result digest."""
    digest = hashlib.sha256()
    out = {"attempted": 0, "failed": 0, "synth": 0, "times": {}}

    def timed(name, fn):
        t0 = time.perf_counter()
        if span is None:
            fn()
        else:
            with span(f"oracle.{name}", "explorer" if name == "database" else "other"):
                fn()
        out["times"][name] = time.perf_counter() - t0

    tool = MerlinHLSTool()

    def database():
        out["attempted"] += 1
        try:
            db = generate_database(scale=DB_SCALE, seed=seed, tool=tool)
        except ReproError:
            out["failed"] += 1
            return
        for r in db:
            _fold(digest, r.device, r.kernel, r.point_key, r.valid, r.latency,
                  sorted(r.utilization.items()))

    timed("database", database)
    out["synth"] += tool.invocations

    def label():
        for device in LABEL_DEVICES:
            tool = MerlinHLSTool(get_device(device))
            for name, points in setup.samples.items():
                spec = setup.specs[name]
                for point in points:
                    out["attempted"] += 1
                    try:
                        result = tool.synthesize(spec, point)
                    except ReproError:
                        out["failed"] += 1
                        continue
                    _fold(digest, result.device, result.kernel, result.point_key,
                          result.valid, result.latency, sorted(result.usage.items()))
            out["synth"] += tool.invocations

    timed("label", label)
    out["digest"] = digest.hexdigest()
    return out


def check(jobs, seed, expected):
    digests = {job["digest"] for job in jobs}
    if len(digests) != 1:
        raise BenchmarkError("two oracle jobs with the same seed gave different results")
    want = expected.get("digest", {}).get(str(seed))
    if want is not None and want not in digests:
        raise BenchmarkError(f"HLS result digest {digests.pop()} != expected {want}")


def run(seed, seconds, trace, expected, setup_timer):
    setup = setup_timer(lambda: Setup(seed))
    if trace:
        return run_traced(setup, seed, expected)
    jobs = run_units(seconds, lambda i: run_job(setup, seed))
    check([job for job, _ in jobs], seed, expected)
    walls = [wall for _, wall in jobs]
    return {
        "attempted": sum(job["attempted"] for job, _ in jobs),
        "failed": sum(job["failed"] for job, _ in jobs),
        "metrics": {"job_s": median(walls), "job_tail_s": tail(walls)[1]},
        "record": {
            "jobs": len(jobs),
            "job_s": walls,
            "job_tail": tail(walls)[0],
            "oracle_synth_per_s": sum(job["synth"] for job, _ in jobs) / sum(walls),
            "syntheses_per_job": jobs[0][0]["synth"],
            "digest": jobs[0][0]["digest"],
        },
    }


def run_traced(setup, seed, expected):
    from layers import instrument, layer_metrics, probe_front_end
    from tracing import Tracer

    run_job(setup, seed)  # warm-up: the first job in a process pays one-off costs
    t0 = time.perf_counter()
    baseline = run_job(setup, seed)
    untraced = time.perf_counter() - t0
    tracer = Tracer()
    instrument(tracer)
    try:
        with tracer.root() as root:
            job = run_job(setup, seed, tracer.span)
    finally:
        tracer.restore()
    check([baseline, job], seed, expected)
    probes = probe_front_end(LABEL_KERNELS, devices=LABEL_DEVICES)
    extra = {"hls.synth_per_s": baseline["synth"] / untraced}
    return {
        "attempted": baseline["attempted"] + job["attempted"],
        "failed": baseline["failed"] + job["failed"],
        "metrics": layer_metrics(tracer, root.wall, untraced, probes, extra),
        "record": {"untraced_job_s": untraced, "traced_job_s": root.wall},
    }
