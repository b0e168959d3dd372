"""Which dualgp functions are traced, and the per-layer metrics made from them.

Layers are the modules of ``src/dualgp``.  Stage times of the streaming
engine (``sequential.*_ms``) are inclusive spans of the stage functions; the
times of the layers underneath (``dual``, ``kernels``, ``likelihoods``,
``representation``, ``memory``) are self times, so a Gram matrix built inside
``predict`` is charged to ``kernels`` and not to ``dual``.  Health counts are
read from return values: clip magnitude from the ``AdjustedPrior``, jitter
from the ``GramFactor``, accepted hyper steps from the objective trace that
``optimize_hypers`` returns, turnover from the inducing set and memory that
come back.
"""

from __future__ import annotations

from tracer import Target, Tracer


def _gram(tracer: Tracer, args, result) -> None:
    tracer.count("kernels.gram_entries", result.size)


def _cholesky(tracer: Tracer, args, result) -> None:
    if result.jitter_used > 0.0:
        tracer.count("kernels.cholesky_jitter")


def _predict(tracer: Tracer, args, result) -> None:
    tracer.count("dual.predict_rows", len(result[0]))


def _evaluate(tracer: Tracer, args, result) -> None:
    tracer.count("acquisition.evaluate_rows", len(result))


def _remove(tracer: Tracer, args, result) -> None:
    if result.clip_magnitude > 0.0:
        tracer.count("sequential.clip_batches")
        tracer.high("sequential.clip_max", result.clip_magnitude)


def _hypers(tracer: Tracer, args, result) -> None:
    # optimize_hypers repeats the previous value in its trace for a rejected step
    trace = result[2]
    accepted = sum(1 for prev, cur in zip(trace, trace[1:]) if cur != prev)
    tracer.count("sequential.hyper_accepted", accepted)
    tracer.count("sequential.hyper_rejected", len(trace) - 1 - accepted)


def _new_rows(old, new) -> int:
    seen = {row.tobytes() for row in old}
    return sum(1 for row in new if row.tobytes() not in seen)


def _refresh(tracer: Tracer, args, result) -> None:
    tracer.count("representation.z_turnover", _new_rows(args[0].z, result.z))


def _memory(tracer: Tracer, args, result) -> None:
    tracer.count("memory.turnover", _new_rows(args[0].inputs, result.inputs))
    tracer.high("memory.size", len(result))


TARGETS = [
    Target("dualgp.kernels", "gram", "kernels.gram", _gram),
    Target("dualgp.kernels", "stable_cholesky", "kernels.stable_cholesky", _cholesky),
    Target("dualgp.likelihoods", "Gaussian.site_expectations", "likelihoods.site_expectations"),
    Target("dualgp.likelihoods", "BernoulliLogit.site_expectations", "likelihoods.site_expectations"),
    Target("dualgp.likelihoods", "Gaussian.expected_log_lik", "likelihoods.expected_log_lik"),
    Target("dualgp.likelihoods", "BernoulliLogit.expected_log_lik", "likelihoods.expected_log_lik"),
    Target("dualgp.dual", "predict", "dual.predict", _predict),
    Target("dualgp.dual", "compute_sites", "dual.compute_sites"),
    Target("dualgp.dual", "ngd_step", "dual.ngd_step"),
    Target("dualgp.dual", "iterate_ngd", "dual.iterate_ngd"),
    Target("dualgp.dual", "elbo", "dual.elbo"),
    Target("dualgp.dual", "recover_moments", "dual.recover_moments"),
    Target("dualgp.dual", "dual_factor", "dual.dual_factor"),
    Target("dualgp.dual", "make_state", "dual.make_state"),
    Target("dualgp.representation", "pivoted_cholesky_select", "representation.pivoted_cholesky_select"),
    Target("dualgp.representation", "project_duals", "representation.project_duals"),
    Target("dualgp.representation", "refresh_representation", "representation.refresh_representation", _refresh),
    Target("dualgp.memory", "bls", "memory.bls"),
    Target("dualgp.memory", "update_memory", "memory.update_memory", _memory),
    Target("dualgp.sequential", "run_stream", "sequential.run_stream"),
    Target("dualgp.sequential", "process_batch", "sequential.process_batch"),
    Target("dualgp.sequential", "remove_memory", "sequential.remove_memory", _remove),
    Target("dualgp.sequential", "optimize_hypers", "sequential.optimize_hypers", _hypers),
    Target("dualgp.sequential", "hyper_objective", "sequential.hyper_objective"),
    Target("dualgp.sequential", "seq_objective", "sequential.seq_objective"),
    Target("dualgp.acquisition", "fantasize_batch", "acquisition.fantasize_batch"),
    Target("dualgp.acquisition", "ExpectedImprovement.evaluate", "acquisition.evaluate", _evaluate),
    Target("dualgp.harness", "evaluate_state", "harness.evaluate_state"),
]


def _per_call(total: float, calls: int) -> float:
    return total / calls if calls else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in ms)."""
    ms = 1000.0
    hyper_evals = tr.calls("sequential.hyper_objective")
    accepted = tr.counts["sequential.hyper_accepted"]
    rejected = tr.counts["sequential.hyper_rejected"]
    predict_calls = tr.calls("dual.predict")
    evaluate_calls = tr.calls("acquisition.evaluate")
    condition_s = tr.inclusive_s("dual.ngd_step", parent="acquisition.fantasize_batch")
    return {
        "sequential.hyper_ms": ms * tr.inclusive_s("sequential.optimize_hypers"),
        "sequential.hyper_evals": hyper_evals,
        "sequential.hyper_eval_ms": ms * _per_call(tr.inclusive_s("sequential.hyper_objective"), hyper_evals),
        "sequential.hyper_accepted": accepted,
        "sequential.hyper_rejected": rejected,
        "sequential.hyper_accept_ratio": _per_call(accepted, accepted + rejected),
        "sequential.refresh_ms": ms * (
            tr.inclusive_s("representation.refresh_representation")
            + tr.inclusive_s("representation.pivoted_cholesky_select", parent="sequential.run_stream")
        ),
        "sequential.remove_ms": ms * tr.inclusive_s("sequential.remove_memory"),
        "sequential.ngd_ms": ms * tr.inclusive_s("dual.ngd_step", parent="sequential.process_batch"),
        "sequential.objective_ms": ms * tr.inclusive_s("sequential.seq_objective"),
        "sequential.memory_ms": ms * tr.inclusive_s("memory.update_memory"),
        "sequential.clip_batches": tr.counts["sequential.clip_batches"],
        "sequential.clip_max": tr.maxima["sequential.clip_max"],
        "dual.predict_calls": predict_calls,
        "dual.predict_ms": ms * tr.self_s("dual.predict"),
        "dual.predict_rows_per_call": _per_call(tr.counts["dual.predict_rows"], predict_calls),
        "dual.ngd_step_ms": ms * tr.self_s("dual.ngd_step"),
        "dual.elbo_ms": ms * tr.self_s("dual.elbo"),
        "dual.recover_moments_ms": ms * tr.self_s("dual.recover_moments"),
        "dual.dual_factor_ms": ms * tr.self_s("dual.dual_factor"),
        "kernels.gram_calls": tr.calls("kernels.gram"),
        "kernels.gram_ms": ms * tr.self_s("kernels.gram"),
        "kernels.gram_entries": tr.counts["kernels.gram_entries"],
        "kernels.cholesky_calls": tr.calls("kernels.stable_cholesky"),
        "kernels.cholesky_ms": ms * tr.self_s("kernels.stable_cholesky"),
        "kernels.cholesky_jitter": tr.counts["kernels.cholesky_jitter"],
        "likelihoods.site_ms": ms * tr.self_s("likelihoods.site_expectations"),
        "likelihoods.ell_ms": ms * tr.self_s("likelihoods.expected_log_lik"),
        "representation.select_ms": ms * tr.self_s("representation.pivoted_cholesky_select"),
        "representation.project_ms": ms * tr.self_s("representation.project_duals"),
        "representation.z_turnover": tr.counts["representation.z_turnover"],
        "memory.bls_ms": ms * tr.self_s("memory.bls"),
        "memory.turnover": tr.counts["memory.turnover"],
        "memory.size": tr.maxima["memory.size"],
        "acquisition.maximize_ms": ms * (tr.inclusive_s("acquisition.fantasize_batch") - condition_s),
        "acquisition.condition_ms": ms * condition_s,
        "acquisition.evaluate_calls": evaluate_calls,
        "acquisition.evaluate_rows_per_call": _per_call(tr.counts["acquisition.evaluate_rows"], evaluate_calls),
        "harness.evaluate_ms": ms * tr.inclusive_s("harness.evaluate_state"),
        "trace.missing_names": len(tr.missing),
    }


# Per-layer times repeated from the single-thread reference run.
SINGLE_THREAD_KEYS = (
    "sequential.hyper_ms",
    "sequential.refresh_ms",
    "sequential.ngd_ms",
    "sequential.memory_ms",
    "dual.predict_ms",
    "kernels.gram_ms",
    "kernels.cholesky_ms",
    "acquisition.maximize_ms",
)
