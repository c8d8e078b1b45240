"""Per-layer instrumentation for traced runs, and the per-layer metric table.

:func:`instrument` installs :class:`~tracing.Tracer` wrappers around
the public entry points of each layer; :func:`probe_front_end` times
the front-end layers directly on fresh kernel specs; :func:`layer_metrics`
turns what was recorded into the ``per_layer`` metrics named in
``BENCHMARK.json``.  A metric whose layer did no work on a workload
reads 0.
"""

import dataclasses
import statistics
import time


def instrument(tracer):
    """Wrap every layer entry point the workloads reach.  Returns the pipeline list."""
    import repro.dse.search as search_mod
    import repro.dse.strategies as strategies_mod
    import repro.explorer.runner as runner_mod
    import repro.hls.cgra as cgra_mod
    import repro.hls.tool as tool_mod
    import repro.loop.active as active_mod
    from repro.dse.pipeline import CompiledGNNEngine, EncodingCache, EvaluationPipeline
    from repro.explorer.database import Database
    from repro.hls.estimator import Estimator
    from repro.hls.tool import MerlinHLSTool
    from repro.model.dataset import GraphDatasetBuilder
    from repro.model.trainer import Trainer
    from repro.serve.registry import ModelRegistry

    pipelines = []

    def pipeline_init(original):
        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            pipelines.append(self)
        return __init__

    original_init = EvaluationPipeline.__dict__["__init__"]
    tracer.patch(EvaluationPipeline, "__init__", pipeline_init(original_init))

    original_predict = EvaluationPipeline.__dict__["predict_batch"]

    def predict_batch(self, *args, **kwargs):
        compiles = tracer.counts["pipeline.compile"]
        frame = tracer.begin("pipeline.predict_batch", "pipeline")
        try:
            return original_predict(self, *args, **kwargs)
        finally:
            seconds = tracer.end(frame)
            if tracer.counts["pipeline.compile"] > compiles:
                tracer.sample("pipeline.cold_call", seconds)

    tracer.patch(EvaluationPipeline, "predict_batch", predict_batch)
    tracer.wrap(CompiledGNNEngine, "__init__", "pipeline.compile", "pipeline",
                after=lambda args, result, s: tracer.count("pipeline.compile"))
    tracer.wrap(EncodingCache, "get", "graph.encode_kernel", "graph")

    for module in (search_mod, strategies_mod):
        tracer.wrap(module, "pareto_merge", "search.pareto", "search")
    tracer.wrap(search_mod, "pareto_front", "search.pareto", "search")

    original_synthesize = MerlinHLSTool.__dict__["synthesize"]

    def synthesize(self, *args, **kwargs):
        invocations = self.invocations
        frame = tracer.begin("hls.synthesize", "hls")
        try:
            return original_synthesize(self, *args, **kwargs)
        finally:
            seconds = tracer.end(frame)
            if self.invocations > invocations:
                tracer.sample("hls.synth", seconds)
            else:
                tracer.count("hls.synth_cached")

    tracer.patch(MerlinHLSTool, "synthesize", synthesize)
    tracer.wrap(tool_mod, "configure", "hls.configure", "hls")
    tracer.wrap(Estimator, "run", "hls.estimate", "hls")
    tracer.wrap(cgra_mod, "estimate_cgra", "hls.estimate", "hls")
    tracer.wrap(runner_mod, "build_design_space", "designspace.build", "designspace")
    tracer.wrap(active_mod, "build_design_space", "designspace.build", "designspace")
    tracer.wrap(Database, "save", "explorer.db_save", "explorer")

    def fit_after(args, result, seconds):
        trainer, _, data = args[:3]
        tracer.count("model.train_samples", len(data) * trainer.config.epochs)

    tracer.wrap(Trainer, "fit", "model.train", "model", after=fit_after)
    tracer.wrap(GraphDatasetBuilder, "build", "model.dataset", "model")
    tracer.wrap(active_mod, "evaluate_regression", "model.eval", "model")
    tracer.wrap(active_mod, "evaluate_classification", "model.eval", "model")
    tracer.wrap(active_mod, "load_artifact", "registry.load", "registry")
    tracer.wrap(ModelRegistry, "publish", "registry.publish", "registry")
    return pipelines


def probe_front_end(kernels, devices=(None,), repeats=3):
    """Time frontend/IR/graph/designspace on fresh copies of ``kernels``.

    Returns mean milliseconds per kernel (per kernel and device for the
    encoder), each the median of ``repeats`` fresh builds.
    """
    from repro.designspace import build_design_space
    from repro.graph import GraphEncoder, kernel_graph
    from repro.hls.device import get_device
    from repro.kernels import get_kernel

    timings = {name: [] for name in (
        "frontend.parse_ms", "ir.analyze_ms", "graph.build_ms",
        "graph.encode_ms", "designspace.build_ms",
    )}

    def clock(fn):
        t0 = time.perf_counter()
        value = fn()
        return value, (time.perf_counter() - t0) * 1000.0

    for kernel in kernels:
        runs = {name: [] for name in timings}
        for _ in range(repeats):
            spec = dataclasses.replace(get_kernel(kernel))
            runs["frontend.parse_ms"].append(clock(lambda: spec.unit)[1])
            runs["ir.analyze_ms"].append(
                clock(lambda: (spec.analysis, spec.module))[1]
            )
            graph, ms = clock(lambda: kernel_graph(spec))
            runs["graph.build_ms"].append(ms)
            for device in devices:
                target = get_device(device) if device else None
                runs["graph.encode_ms"].append(
                    clock(lambda: GraphEncoder().encode(graph, device=target))[1]
                )
            runs["designspace.build_ms"].append(clock(lambda: build_design_space(spec))[1])
        for name, values in runs.items():
            timings[name].append(statistics.median(values))
    return {name: statistics.mean(values) for name, values in timings.items()}


def pipeline_metrics(stats_list):
    """Pipeline-layer metrics from a list of ``PipelineStats``."""
    points = sum(s.points for s in stats_list)
    batches = sum(s.batches for s in stats_list)
    model_points = sum(s.model_points for s in stats_list)
    hits = sum(s.cache_hits for s in stats_list)
    misses = sum(s.cache_misses for s in stats_list)
    skipped = sum(s.cascade_skipped for s in stats_list)
    wall = sum(s.wall_seconds for s in stats_list)
    return {
        "pipeline.points": points,
        "pipeline.batches": batches,
        "pipeline.mean_batch": model_points / batches if batches else 0.0,
        "pipeline.ms_per_point": 1000.0 * wall / points if points else 0.0,
        "pipeline.infer_s": sum(s.inference_seconds for s in stats_list),
        "pipeline.encode_s": sum(s.encode_seconds for s in stats_list),
        "pipeline.materialize_s": sum(s.materialize_seconds for s in stats_list),
        "pipeline.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "pipeline.cascade_skip_ratio": skipped / points if points else 0.0,
    }


def layer_metrics(tracer, traced_wall, untraced_wall, probes, extra):
    """Assemble every per-layer metric from one traced unit of work."""
    out = dict(probes)
    synth = tracer.samples.get("hls.synth", [])
    cached = tracer.counts.get("hls.synth_cached", 0)
    cold = tracer.samples.get("pipeline.cold_call", [])
    train_s = tracer.total_s.get("model.train", 0.0)
    out.update({
        "pipeline.cold_calls": len(cold),
        "pipeline.cold_call_ms": 1000.0 * statistics.median(cold) if cold else 0.0,
        "search.pareto_s": tracer.total_s.get("search.pareto", 0.0),
        "hls.synth_calls": len(synth),
        "hls.synth_ms": 1000.0 * statistics.median(synth) if synth else 0.0,
        "hls.cache_hit_ratio": cached / (cached + len(synth)) if cached + len(synth) else 0.0,
        "hls.configure_s": tracer.total_s.get("hls.configure", 0.0),
        "hls.estimate_s": tracer.total_s.get("hls.estimate", 0.0),
        "explorer.overhead_s": tracer.self_s.get("explorer", 0.0),
        "explorer.db_save_s": tracer.total_s.get("explorer.db_save", 0.0),
        "model.train_s": train_s,
        "model.train_samples_per_s": (
            tracer.counts.get("model.train_samples", 0) / train_s if train_s else 0.0
        ),
        "model.eval_s": tracer.total_s.get("model.eval", 0.0),
        "registry.publish_s": tracer.total_s.get("registry.publish", 0.0),
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.unaccounted_ratio": tracer.self_s.get("other", 0.0) / traced_wall,
    })
    for layer, seconds in tracer.self_seconds().items():
        out[f"self.{layer}_s"] = seconds
    out.update(extra)
    return out


__all__ = ["instrument", "layer_metrics", "pipeline_metrics", "probe_front_end"]
