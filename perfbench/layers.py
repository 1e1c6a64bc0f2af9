"""Per-layer metrics of a traced pass, and the captures the deep checks use.

A ``Recorder`` owns the tracer and its hooks.  The hooks count the samples
the per-sample layers process and keep, per repetition, what the checker
needs to recompute the separation index without bsskit's metric: the
sources, the channel order, the global system handed to the metric, and the
equalizer output.
"""

import collections
import inspect
import statistics

import numpy as np

import checker
from tracer import Tracer


def _sample_count(U):
    return np.shape(getattr(U, "data", U))[1]


class Recorder:
    """Tracer plus hooks; ``reps`` holds one capture dict per repetition of a round."""

    def __init__(self):
        from bsskit import algebraic

        self._unimodal_sig = inspect.signature(algebraic.unimodal_equalizer)
        self.samples = collections.Counter()
        self.reps = []
        self.tracer = Tracer(hooks={
            "signals.generate_sources": self._sources,
            "signals.mix": self._mix,
            "metrics.separation_index": self._global_system,
            "algebraic.UnimodalResult.outputs": self._outputs,
            "adaptive.run_separation": self._adaptive_samples,
            "algebraic.unimodal_equalizer": self._unimodal_samples,
        })

    # every repetition generates its sources first, so that opens its capture
    def _sources(self, args, kwargs, result):
        self.reps.append({"A": result.data})

    def _mix(self, args, kwargs, result):
        self.reps[-1]["order"] = args[0].order

    def _global_system(self, args, kwargs, result):
        self.reps[-1]["S"] = np.array(args[0], dtype=float)

    def _outputs(self, args, kwargs, result):
        self.reps[-1]["y"] = np.array(result, dtype=float)
        self.reps[-1]["L"] = args[0].window_length

    def _adaptive_samples(self, args, kwargs, result):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        epochs = len(result[1]) or cfg.max_iterations
        self.samples["adaptive"] += _sample_count(args[0]) * epochs

    def _unimodal_samples(self, args, kwargs, result):
        bound = self._unimodal_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        p = bound.arguments
        self.samples["unimodal"] += (_sample_count(p["U"]) - p["L"] + 1) * p["epochs"]

    def check_round(self, plan, emitted):
        """Recompute every repetition's index from its captures; returns problems."""
        problems = []
        records = [(name, r) for name, _, _ in plan for r in emitted.get(name, [])]
        if len(records) != len(self.reps):
            return [f"{len(self.reps)} traced repetitions for {len(records)} records"]
        for (name, record), rep in zip(records, self.reps):
            where = f"{name} rep {record.get('rep')}"
            if record.get("status") != "ok":
                continue
            if "y" in rep:
                index, agree = checker.delayed_source_fit(rep["y"], rep["A"], rep["L"] + rep["order"])
                if agree < checker.MIN_SIGN_AGREEMENT:
                    problems.append(f"{where}: output signs match the best delayed source {agree:.4f}")
                rel = checker.FIT_AGREE_REL
            elif "S" in rep:
                index, rel = checker.interference_db(rep["S"]), checker.AGREE_REL
            else:
                problems.append(f"{where}: no global system or output captured")
                continue
            problems += [f"{where}: {p}" for p in checker.agreement_problems(record, index, rel)]
        self.reps = []
        return problems


def per_layer(recorder, plain_walls, traced_walls):
    """Per-round layer metrics: seconds inclusive of callees unless named ``self``."""
    t = recorder.tracer
    rounds = len(traced_walls)

    def us_per(total_s, count):
        return 1e6 * total_s / count if count else 0.0

    timed = ("signals.generate_sources", "signals.mix", "signals.window_stack",
             "second_order.whiten", "second_order.amuse",
             "moments.estimate_cum4", "moments.tucker_transform",
             "algebraic.jacobi_diagonalize", "algebraic.jade_rotation", "algebraic.rank1_init",
             "algebraic.hopm", "algebraic.deterministic_cm", "algebraic.unimodal_equalizer",
             "adaptive.run_separation", "adaptive.stability_check",
             "fixedpoint.deflate_extract", "metrics.separation_index")
    counted = ("moments.estimate_cum4", "moments.tucker_transform", "adaptive.adaptive_update",
               "fixedpoint.fastica_step", "fixedpoint.cma_step", "scores.f")
    out = {
        "cli.parse_s": (t.total_s("cli.load_scenario") / rounds, "s"),
        "cli.run_experiment_self_s": (t.self_s("cli.run_experiment") / rounds, "s"),
        "cli.emit_s": (t.total_s("cli._emit") / rounds, "s"),
    }
    out.update({f"{name}_s": (t.total_s(name) / rounds, "s") for name in timed})
    out.update({f"{name}_calls": (t.calls(name) / rounds, "count") for name in counted})
    out["algebraic.unimodal_us_per_sample"] = (
        us_per(t.total_s("algebraic.unimodal_equalizer"), recorder.samples["unimodal"]), "us/sample")
    out["adaptive.us_per_sample"] = (
        us_per(t.total_s("adaptive.run_separation"), recorder.samples["adaptive"]), "us/sample")
    out["fixedpoint.cma_us_per_sample"] = (
        us_per(t.total_s("fixedpoint.cma_step"), t.calls("fixedpoint.cma_step")), "us/sample")
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    return out
