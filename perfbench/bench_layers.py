"""Which rfdna functions the traced run wraps, and the per-layer metrics.

Each function is wrapped where its caller looks it up: module attributes
for calls such as ``chanest.nm_estimate(...)``, and the harness's (or the
CLI's) own namespace for names it imports directly.  A span is named
``<layer>.<function>``; the layer is the module that implements the
function.  A name that a later version of the package no longer has is
skipped, and its metrics read 0.
"""

from __future__ import annotations

import bench_trace

# (module holding the looked-up name, attribute, layer)
WRAPPED = (
    ("cli", "run_classification_experiment", "harness"),
    ("cli", "run_estimator_comparison", "harness"),
    ("harness", "collect_fingerprints", "harness"),
    ("harness", "select_and_classify", "harness"),
    ("harness", "add_awgn", "channel"),
    ("harness", "draw_channel", "channel"),
    ("harness", "apply_channel", "channel"),
    ("harness", "apply_emitter", "signal_model"),
    ("harness", "generate_preamble", "signal_model"),
    ("harness", "lts_frequency_reference", "signal_model"),
    ("sync", "estimate_time_offset", "sync"),
    ("chanest", "extract_lts_windows", "chanest"),
    ("chanest", "ls_estimate", "chanest"),
    ("chanest", "lmmse_estimate", "chanest"),
    ("chanest", "nm_estimate", "chanest"),
    ("chanest", "build_nm_costs", "chanest"),
    ("chanest", "nelder_mead_minimize", "chanest"),
    ("chanest", "squared_error", "chanest"),
    ("equalize", "zf_equalize", "equalize"),
    ("equalize", "mmse_equalize", "equalize"),
    ("fingerprint", "gabor_coefficients", "fingerprint"),
    ("fingerprint", "to_surface", "fingerprint"),
    ("fingerprint", "extract_fingerprint", "fingerprint"),
    ("classify", "mda_fit", "classify"),
    ("classify", "grlvqi_fit", "classify"),
    ("classify", "ml_classify_batch", "classify"),
    ("classify", "grlvqi_classify_batch", "classify"),
)
ROOT_SPAN = ("cli", "main", "cli")

LAYERS = ("cli", "harness", "signal_model", "channel", "sync", "chanest", "equalize",
          "fingerprint", "classify")
PREDICT_NAMES = ("classify.ml_classify_batch", "classify.grlvqi_classify_batch")


def _observers(rfdna, expected_offset: int) -> dict:
    def minimize(tracer, args, kwargs, result, exc):
        if result is not None:
            _x, _f, iterations, reason = result
            tracer.sample("nm.iterations", iterations)
            tracer.count(f"nm.stop_{reason}")

    def nm_estimate(tracer, args, kwargs, result, exc):
        tracer.count("nm.offered", len(args[1]))

    def sync(tracer, args, kwargs, result, exc):
        if result is not None:
            tracer.count("sync.calls")
            tracer.count("sync.exact", result.first_path_offset == expected_offset)
            # the burst start is theta_hat minus eight STS, clamped at 0
            eight_sts = rfdna.sync.N_STS_BEFORE_NINTH * rfdna.sync.STS_LEN
            tracer.count("sync.clamped", result.theta_hat < eight_sts)

    def zf(tracer, args, kwargs, result, exc):
        tracer.count("zf.fallbacks", type(exc).__name__ == "SpectralNullError")

    def fit(tracer, args, kwargs, result, exc):
        tracer.count("fit_rows", len(args[1]))

    def predict(tracer, args, kwargs, result, exc):
        tracer.count("predict_rows", len(args[1]))

    return {"chanest.nelder_mead_minimize": minimize, "chanest.nm_estimate": nm_estimate,
            "sync.estimate_time_offset": sync, "equalize.zf_equalize": zf,
            "classify.mda_fit": fit, "classify.grlvqi_fit": fit,
            "classify.ml_classify_batch": predict, "classify.grlvqi_classify_batch": predict}


def _guarded(observe):
    """A counter that cannot be read from a changed return type is reported,
    not raised into the run it observes."""
    def call(tracer, *args):
        try:
            observe(tracer, *args)
        except (AttributeError, TypeError, ValueError, IndexError):
            tracer.count("observer_errors")
    return call


def install(tracer: bench_trace.Tracer, rfdna, expected_offset: int) -> None:
    """Wrap every traced name; expected_offset is the profile's first-path delay."""
    observers = _observers(rfdna, expected_offset)
    for module_name, attr, layer in WRAPPED + (ROOT_SPAN,):
        module = getattr(rfdna, module_name)
        if not hasattr(module, attr):
            continue
        name = f"{layer}.{attr}"
        observe = observers.get(name)
        tracer.wrap(module, attr, name, _guarded(observe) if observe else None)


def metrics(tracer: bench_trace.Tracer, runs: int) -> dict:
    """Per-layer metrics per traced CLI run (counts and sums divided by runs)."""
    ms = lambda name: 1e3 * bench_trace.median(tracer.durations(name))  # noqa: E731
    count = lambda key: tracer.counters.get(key, 0) / runs  # noqa: E731
    total = lambda name: sum(tracer.durations(name)) / runs  # noqa: E731

    out = {f"{layer}.self_s": seconds / runs
           for layer, seconds in bench_trace.self_time_by_layer(tracer.spans).items()
           if layer in LAYERS}
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS if f"{layer}.self_s" not in out})

    nm_calls = tracer.durations("chanest.nm_estimate")
    nm_tail, nm_tail_pct = bench_trace.tail(nm_calls)
    iterations = tracer.samples.get("nm.iterations", [])
    offered = tracer.counters.get("nm.offered", 0)
    out.update({
        "chanest.nm_estimate.ms_p50": ms("chanest.nm_estimate"),
        "chanest.nm_estimate.ms_tail": 1e3 * nm_tail,
        "chanest.nm_estimate.tail_pct": nm_tail_pct,
        "chanest.nm_estimate.n": len(nm_calls) / runs,
        "chanest.ls_estimate.ms_p50": ms("chanest.ls_estimate"),
        "chanest.lmmse_estimate.ms_p50": ms("chanest.lmmse_estimate"),
        "chanest.nm.minimize_calls": len(iterations) / runs,
        "chanest.nm.iterations_p50": bench_trace.median(iterations),
        "chanest.nm.iterations_max": float(max(iterations, default=0)),
        "chanest.nm.stop_function_tolerance": count("nm.stop_function_tolerance"),
        "chanest.nm.stop_vertex_tolerance": count("nm.stop_vertex_tolerance"),
        "chanest.nm.stop_max_iterations": count("nm.stop_max_iterations"),
        "chanest.nm.unique_candidate_frac":
            len(tracer.durations("chanest.build_nm_costs")) / offered if offered else 0.0,
        "fingerprint.gabor_coefficients.ms_p50": ms("fingerprint.gabor_coefficients"),
        "fingerprint.to_surface.ms_p50": ms("fingerprint.to_surface"),
        "fingerprint.extract_fingerprint.ms_p50": ms("fingerprint.extract_fingerprint"),
        "classify.mda_fit.s_p50": ms("classify.mda_fit") / 1e3,
        "classify.grlvqi_fit.s_p50": ms("classify.grlvqi_fit") / 1e3,
        "classify.fit_rows": count("fit_rows"),
        "classify.predict_rows_per_s": _rate(tracer, "predict_rows", PREDICT_NAMES),
        "sync.estimate_time_offset.ms_p50": ms("sync.estimate_time_offset"),
        "sync.offset_exact_frac": _ratio(tracer, "sync.exact", "sync.calls"),
        "sync.clamped": count("sync.clamped"),
        "equalize.zf_equalize.ms_p50": ms("equalize.zf_equalize"),
        "equalize.mmse_equalize.ms_p50": ms("equalize.mmse_equalize"),
        "equalize.zf_calls": len(tracer.durations("equalize.zf_equalize")) / runs,
        "equalize.zf_fallbacks": count("zf.fallbacks"),
        "channel.add_awgn.ms_p50": ms("channel.add_awgn"),
        "channel.apply_channel.ms_p50": ms("channel.apply_channel"),
        "channel.draw_channel.ms_p50": ms("channel.draw_channel"),
        "harness.collect_fingerprints.s": total("harness.collect_fingerprints"),
        "harness.select_and_classify.s": total("harness.select_and_classify"),
        "trace.spans": len(tracer.spans) / runs,
        "trace.observer_errors": count("observer_errors"),
    })
    return out


def _ratio(tracer, numerator: str, denominator: str) -> float:
    below = tracer.counters.get(denominator, 0)
    return tracer.counters.get(numerator, 0) / below if below else 0.0


def _rate(tracer, counter: str, names) -> float:
    seconds = sum(sum(tracer.durations(name)) for name in names)
    return tracer.counters.get(counter, 0) / seconds if seconds else 0.0
