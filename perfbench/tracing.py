"""Span and counter recorder for the traced benchmark run.

``install()`` wraps the public functions of each ``hiergames`` layer from
outside the package (by replacing module and class attributes) and returns
a :class:`Tracer` that accumulates, per layer, self time and work counts.

Attribution rules:

* A span's self time is its duration minus the durations of the spans it
  directly encloses, and goes to the span's layer.  Time in code that is not
  wrapped (numpy calls, the game's direct ``stream.generator`` draws, loop
  overhead) therefore lands in the nearest enclosing span.
* Solver-layer spans (``inner_resolvent``, ``_zsol``, ``zo_gradient_batch``)
  opened under a residual span belong to the ``residuals`` layer: that work
  is measurement, not solver work, and is counted as such.
* Oracle, projection, RNG and report spans keep their own layer wherever
  they are called from.
* ``cli.run_experiment`` and ``runner.run_single`` are catch-all spans of
  ``bench.runner``: their self time is whatever no named span encloses.  It
  counts in ``bench.runner.self_s`` but not in the covered time behind
  ``trace.covered_share``, so that share reads the part of the run that
  named layers account for.
* Call counts of a layer count outermost calls only: a call nested inside a
  span of the same layer (the constrained market's call into the plain one,
  ``unit_ball_batch`` into ``unit_sphere_batch``) is part of its caller.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

RESIDUALS = "residuals"


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [layer, seconds of enclosed spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.uncovered_s = 0.0  # self time of catch-all spans
        self.residual_depth = 0
        self.init_depth = 0

    def covered_s(self) -> float:
        """Self time of all spans except the catch-all ones."""
        return sum(self.self_s.values()) - self.uncovered_s

    def span(self, fn, layer, count=None, measured_as=None, residual=False, catch_all=False):
        """Wrap ``fn`` as a span of ``layer``.

        ``count(counts, layer, outer, args, kwargs, result, seconds)`` updates
        the counters after each call; ``measured_as`` is the layer used when
        the call runs under a residual span; a ``catch_all`` span's self time
        is also counted as uncovered.
        """
        tracer = self
        stack = self.stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            lay = measured_as if measured_as is not None and tracer.residual_depth else layer
            outer = not stack or stack[-1][0] != lay
            frame = [lay, 0.0]
            stack.append(frame)
            if residual:
                tracer.residual_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if residual:
                    tracer.residual_depth -= 1
                stack.pop()
                self_s[lay] += dt - frame[1]
                if catch_all:
                    tracer.uncovered_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if count is not None:
                count(counts, lay, outer, args, kwargs, result, dt)
            return result

        return wrapped

    def stream_init(self, fn):
        """Span for creating a generator (``RandomStream.generator`` on first
        use, ``clone``); counted as one stream each, timed once when nested."""
        tracer = self

        def count(counts, lay, outer, args, kwargs, result, dt):
            counts["rng.streams"] += 1

        inner = self.span(fn, "rng", count)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.init_depth += 1
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.init_depth -= 1
                if tracer.init_depth == 0:
                    tracer.counts["rng.stream_init_s"] += time.perf_counter() - t0

        return wrapped


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rng_count(counts, lay, outer, args, kwargs, result, dt):
    if outer:
        counts["rng.calls"] += 1
        counts["rng.values"] += np.size(result)


def _scalar_count(prefix):
    def count(counts, lay, outer, args, kwargs, result, dt):
        if outer:
            counts[prefix + ".scalar_calls"] += 1
    return count


def _batch_count(prefix, index, name, rows_of=int):
    def count(counts, lay, outer, args, kwargs, result, dt):
        if outer:
            counts[prefix + ".batch_calls"] += 1
            counts[prefix + ".batch_rows"] += rows_of(_arg(args, kwargs, index, name))
    return count


def _size(v):
    return int(np.size(v)) if np.ndim(v) <= 1 else int(np.shape(v)[0])


def install() -> Tracer:
    """Wrap every traced function and return the recorder."""
    from hiergames import report, residuals, rng
    from hiergames.bench import cli, runner
    from hiergames.games import base, bilevel, cournot
    from hiergames.solvers import sg, smoothing, vr_spp

    t = Tracer()

    # rng: draws through RandomStream methods, and generator creation.
    RS = rng.RandomStream
    for name in ("uniform", "normal", "unit_sphere_batch", "unit_ball_batch", "choice_index"):
        setattr(RS, name, t.span(getattr(RS, name), "rng", _rng_count))
    make_generator = t.stream_init(RS.generator.fget)

    def generator(self):
        gen = self._gen
        return gen if gen is not None else make_generator(self)

    RS.generator = property(generator)
    RS.clone = t.stream_init(RS.clone)

    # games.base: projection onto the feasible set.
    def project_count(counts, lay, outer, args, kwargs, result, dt):
        counts["games.base.project_calls"] += 1
        counts["games.base.project_s"] += dt

    base.FeasibleSet.project = t.span(base.FeasibleSet.project, "games.base", project_count)

    # games.cournot: scalar and batched oracle paths of both market games.
    cn = "games.cournot"
    for cls in (cournot.MlmfCournotGame, cournot.ConstrainedMlmfCournotGame):
        for name in ("operator_sample", "objective_sample", "constraint_sample"):
            if name in vars(cls):
                setattr(cls, name, t.span(getattr(cls, name), cn, _scalar_count(cn)))
        cls.operator_sample_batch = t.span(
            cls.operator_sample_batch, cn, _batch_count(cn, 2, "count"))
    M = cournot.MlmfCournotGame
    M.objective_sample_batch = t.span(M.objective_sample_batch, cn, _batch_count(cn, 2, "own", _size))
    M.objective_pair_sample_batch = t.span(
        M.objective_pair_sample_batch, cn, _batch_count(cn, 2, "own_a", _size))
    C = cournot.ConstrainedMlmfCournotGame
    C.constraint_sample_batch = t.span(C.constraint_sample_batch, cn, _batch_count(cn, 3, "count"))

    # games.bilevel: batched oracle paths (the scalar ones are timed only).
    bl = "games.bilevel"
    B = bilevel.BilevelGame
    B.operator_sample_batch = t.span(B.operator_sample_batch, bl, _batch_count(bl, 2, "count"))
    B.objective_sample_batch = t.span(B.objective_sample_batch, bl, _batch_count(bl, 2, "own", _size))
    B.objective_pair_sample_batch = t.span(
        B.objective_pair_sample_batch, bl, _batch_count(bl, 2, "own_a", _size))
    for name in ("operator_sample", "objective_sample", "potential_sample"):
        setattr(B, name, t.span(getattr(B, name), bl))

    # solvers.vr_spp: the outer loop and the inner resolvent.
    def resolvent_count(counts, lay, outer, args, kwargs, result, dt):
        steps = _arg(args, kwargs, 4, "n_steps")
        if lay == RESIDUALS:
            counts["residuals.yosida_steps"] += steps
        else:
            counts["solvers.vr_spp.resolvent_calls"] += 1
            counts["solvers.vr_spp.inner_steps"] += steps

    resolvent = t.span(vr_spp.inner_resolvent, "solvers.vr_spp", resolvent_count, RESIDUALS)
    vr_spp.inner_resolvent = resolvent
    residuals.inner_resolvent = resolvent
    vr_spp.run = t.span(vr_spp.run, "solvers.vr_spp")

    # solvers.sg: the whole loop is one span.
    def sg_count(counts, lay, outer, args, kwargs, result, dt):
        counts["solvers.sg.iters"] += _arg(args, kwargs, 1, "config").total_iters

    sg.run = t.span(sg.run, "solvers.sg", sg_count)

    # solvers.smoothing: outer scheme, inexact best response, ZO batches.
    sm = "solvers.smoothing"

    def zsol_count(counts, lay, outer, args, kwargs, result, dt):
        if lay != RESIDUALS:
            counts[sm + ".zsol_calls"] += 1

    def zo_count(counts, lay, outer, args, kwargs, result, dt):
        if lay != RESIDUALS:
            batch = _arg(args, kwargs, 5, "batch_size")
            counts[sm + ".zo_batches"] += 1
            counts[sm + ".zo_evals"] += 2 * ((batch + 1) // 2)

    smoothing._zsol = t.span(smoothing._zsol, sm, zsol_count, RESIDUALS)
    smoothing.zo_gradient_batch = t.span(smoothing.zo_gradient_batch, sm, zo_count, RESIDUALS)
    runner.arspbr_run = t.span(runner.arspbr_run, sm)

    # residuals: the two metrics as the runner's residual hooks call them.
    def residual_count(kind):
        def count(counts, lay, outer, args, kwargs, result, dt):
            counts[f"residuals.{kind}_calls"] += 1
            counts[f"residuals.{kind}_s"] += dt
        return count

    runner.yosida_residual = t.span(
        runner.yosida_residual, RESIDUALS, residual_count("yosida"), residual=True)
    runner.br_residual = t.span(runner.br_residual, RESIDUALS, residual_count("br"), residual=True)

    # report: trajectory recording.
    def record_count(counts, lay, outer, args, kwargs, result, dt):
        counts["report.record_calls"] += 1
        counts["report.record_s"] += dt

    report.RunReport.record = t.span(report.RunReport.record, "report", record_count)

    # bench.spec and bench.runner, as the CLI calls them.
    def load_count(counts, lay, outer, args, kwargs, result, dt):
        counts["bench.spec.load_s"] += dt

    def emit_count(counts, lay, outer, args, kwargs, result, dt):
        counts["bench.runner.emit_s"] += dt
        if args:
            counts["bench.runner.rows"] += len(args[0])

    def summary_count(counts, lay, outer, args, kwargs, result, dt):
        counts["bench.runner.emit_s"] += dt

    cli.load_spec = t.span(cli.load_spec, "bench.spec", load_count)
    cli.run_experiment = t.span(cli.run_experiment, "bench.runner", catch_all=True)
    cli.emit_csv = t.span(cli.emit_csv, "bench.runner", emit_count)
    cli.write_summary = t.span(cli.write_summary, "bench.runner", summary_count)
    runner.run_single = t.span(runner.run_single, "bench.runner", catch_all=True)
    runner.build_game = t.span(runner.build_game, "bench.runner")
    return t


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metric values from one traced workload pass."""
    c, s = t.counts, t.self_s
    out = {
        "rng.calls": c["rng.calls"],
        "rng.values": c["rng.values"],
        "rng.values_per_call": c["rng.values"] / c["rng.calls"] if c["rng.calls"] else 0.0,
        "rng.self_s": s["rng"],
        "rng.streams": c["rng.streams"],
        "rng.stream_init_s": c["rng.stream_init_s"],
        "games.base.project_calls": c["games.base.project_calls"],
        "games.base.project_s": c["games.base.project_s"],
    }
    cn = "games.cournot"
    samples = c[cn + ".scalar_calls"] + c[cn + ".batch_rows"]
    out.update({
        cn + ".scalar_calls": c[cn + ".scalar_calls"],
        cn + ".batch_calls": c[cn + ".batch_calls"],
        cn + ".batch_rows": c[cn + ".batch_rows"],
        cn + ".self_s": s[cn],
        cn + ".ns_per_sample": s[cn] / samples * 1e9 if samples else 0.0,
    })
    bl = "games.bilevel"
    out.update({
        bl + ".batch_calls": c[bl + ".batch_calls"],
        bl + ".batch_rows": c[bl + ".batch_rows"],
        bl + ".self_s": s[bl],
    })
    vr = "solvers.vr_spp"
    out.update({
        vr + ".resolvent_calls": c[vr + ".resolvent_calls"],
        vr + ".inner_steps": c[vr + ".inner_steps"],
        vr + ".self_s": s[vr],
        vr + ".us_per_step": s[vr] / c[vr + ".inner_steps"] * 1e6 if c[vr + ".inner_steps"] else 0.0,
    })
    out.update({"solvers.sg.iters": c["solvers.sg.iters"], "solvers.sg.self_s": s["solvers.sg"]})
    sm = "solvers.smoothing"
    out.update({
        sm + ".zsol_calls": c[sm + ".zsol_calls"],
        sm + ".zo_batches": c[sm + ".zo_batches"],
        sm + ".zo_evals": c[sm + ".zo_evals"],
        sm + ".self_s": s[sm],
        sm + ".us_per_eval": s[sm] / c[sm + ".zo_evals"] * 1e6 if c[sm + ".zo_evals"] else 0.0,
    })
    out.update({
        "residuals.yosida_calls": c["residuals.yosida_calls"],
        "residuals.yosida_steps": c["residuals.yosida_steps"],
        "residuals.yosida_s": c["residuals.yosida_s"],
        "residuals.br_calls": c["residuals.br_calls"],
        "residuals.br_s": c["residuals.br_s"],
        "report.record_calls": c["report.record_calls"],
        "report.record_s": c["report.record_s"],
        "bench.spec.load_s": c["bench.spec.load_s"],
        "bench.runner.rows": c["bench.runner.rows"],
        "bench.runner.emit_s": c["bench.runner.emit_s"],
        "bench.runner.self_s": s["bench.runner"],
    })
    return out
