"""Per-layer tracing from outside the program.

The layers are the ``clickdyn`` modules.  :class:`Tracer` replaces each
layer's public functions by timing wrappers in every module namespace that
binds them (``hbm`` and ``melnikov`` import ``integrate_rhs`` by name,
``freevib``, ``cli`` and ``equilibria`` import model fields by name), so
calls made inside the package are seen too.  Each wrapper records a span
(name, start, end, parent, job id) in memory and updates the layer's
counts; :meth:`Tracer.write_spans` writes the spans once, at the end, and
:meth:`Tracer.uninstall` puts the original functions back.

A span's self time is its duration minus the time of its direct children;
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("model", "equilibria", "integrate", "freevib", "hbm", "melnikov",
          "dataset", "cli")

# format_value runs once per CSV cell inside emit_dataset; a span there
# would cost more than the work it times.
_SKIP = {("dataset", "format_value")}

# model functions evaluated on theta (scalar or array), their second argument
_FIELDS = {"potential", "moment", "stiffness", "damping_factor"}


def _public_functions(mod) -> dict:
    names = getattr(mod, "__all__", None) or [
        n for n in vars(mod) if not n.startswith("_")]
    layer = mod.__name__.rsplit(".", 1)[-1]
    out = {}
    for name in names:
        fn = getattr(mod, name)
        if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                and (layer, name) not in _SKIP):
            out[name] = fn
    return out


class Tracer:
    """Spans and counts of calls into the clickdyn layers."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.job = -1
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.covered_s = 0.0           # time inside top-level spans
        self.parse_s = 0.0             # cli.main time before cli.run
        self._stack: list[list] = []   # [span index, start, child time, name]
        self._sweep_depth = 0
        self._patched: list[tuple] = []

    def install(self) -> None:
        mods = {name: sys.modules[f"clickdyn.{name}"] for name in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for fname, fn in _public_functions(mod).items():
                originals[id(fn)] = (layer, fname, fn)
        for binder, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, self._wrap(binder, *hit))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, binder: str, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        before = getattr(self, f"_before_{layer}_{fname}", None)
        after = getattr(self, f"_after_{layer}_{fname}", None)
        counts = self.counts
        self_s = self.self_s
        stack = self._stack
        clock = time.perf_counter
        layer_calls = f"{layer}.calls"
        fn_calls = f"{name}.calls"
        is_field = layer == "model" and fname in _FIELDS
        from_freevib = (is_field and fname == "potential"
                        and binder == "freevib")

        def wrapper(*args, **kwargs):
            counts[layer_calls] += 1
            counts[fn_calls] += 1
            if is_field:
                points = int(np.size(args[1] if len(args) > 1
                                     else kwargs["theta"]))
                counts["model.points"] += points
                if from_freevib:
                    counts["freevib.potential_calls"] += 1
                    counts["freevib.potential_points"] += points
            if before is not None:
                args = before(args)
            index = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_job.append(self.job)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            frame = [index, start, 0.0, name]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                duration = end - start
                self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.covered_s += duration
                if after is not None:
                    after(result)

        return wrapper

    # Hooks: ``_before_<layer>_<function>(args) -> args`` runs before the
    # span opens; ``_after_<layer>_<function>(result)`` runs after it
    # closes, with ``result`` None when the call raised.

    def _before_integrate_integrate_rhs(self, args):
        f = args[0]
        counts = self.counts
        in_sweep = self._sweep_depth > 0
        if in_sweep:
            counts["hbm.sweep_periods"] += 1

        def counted(t, theta, omega):
            counts["integrate.rhs_evals"] += 1
            if in_sweep:
                counts["hbm.sweep_rhs_evals"] += 1
            return f(t, theta, omega)

        return (counted, *args[1:])

    def _after_integrate_integrate_rhs(self, traj):
        if traj is not None:
            self.counts["integrate.steps_accepted"] += traj.step_stats.accepted
            self.counts["integrate.steps_rejected"] += traj.step_stats.rejected

    def _before_hbm_sweep_hysteresis(self, args):
        self._sweep_depth += 1
        return args

    def _after_hbm_sweep_hysteresis(self, result):
        self._sweep_depth -= 1
        if result is not None:
            self.counts["hbm.sweep_points"] += (len(result.up_s)
                                                + len(result.down_s))

    def _after_melnikov_threshold_grid(self, result):
        if result is not None:
            self.counts["melnikov.cells"] += int(result.m0_crit.size)

    def _after_melnikov_separatrix(self, result):
        if result is not None:
            self.counts["melnikov.orbit_samples"] += int(result.times.size)

    def _after_equilibria_bifurcation_set(self, result):
        if result is not None:
            self.counts["equilibria.curve_samples"] += len(result.samples)

    _after_equilibria_zero_stiffness_set = _after_equilibria_bifurcation_set

    def _after_dataset_emit_dataset(self, path):
        if path is not None:
            self.counts["dataset.bytes"] += Path(path).stat().st_size

    _after_dataset_emit_manifest = _after_dataset_emit_dataset

    def _before_dataset_emit_dataset(self, args):
        self.counts["dataset.rows"] += len(args[0].rows)
        return args

    def _before_cli_run(self, args):
        # main's time before it hands over to run(): argparse and config
        if self._stack and self._stack[-1][3] == "cli.main":
            self.parse_s += time.perf_counter() - self._stack[-1][1]
        return args

    def write_spans(self, path: Path) -> None:
        """Write every span to ``path`` (numpy .npz), once."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 job=np.frombuffer(self.span_job, dtype=np.int32))
