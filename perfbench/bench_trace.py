"""Span tracing of the mmbgk layers, installed from outside the package.

Each wrapper replaces a public function on the name where the caller looks
it up (module globals for functions bound at import, class attributes for
model methods), records a span (name, start, end, parent) in memory and
restores the original on uninstall. Self times, counts and the failing
layer are derived from the span list after a pass.
"""

from collections import Counter, defaultdict
import functools
import os
from time import perf_counter

import numpy as np

from mmbgk import cli, experiments, models, schemes

# wrapped callables: (owner, attribute, span name)
_FUNCTIONS = [
    (schemes, "spatial_update", "grid.spatial_update"),
    (schemes, "apply_source", "grid.apply_source"),
    (schemes, "apply_source_exact", "grid.apply_source"),
    (schemes, "cfl_timestep", "grid.cfl_timestep"),
    (schemes, "transform_state_slots", "coupling.transform_state_slots"),
    (schemes, "match_hsm_states", "coupling.match_hsm_states"),
    (schemes, "pi_extrapolate", "coupling.pi_extrapolate"),
    (schemes, "run_with_reports", "schemes.run"),
    (experiments, "two_beam_initial", "experiments.two_beam_initial"),
    (experiments, "moment_snapshot", "experiments.moment_snapshot"),
    (cli, "two_beam", "experiments.two_beam"),
    (cli, "write_csv", "cli.write_csv"),
    (cli, "parse_and_dispatch", "cli.parse_and_dispatch"),
]
_METHODS = [
    ("system_matrices", "models.system_matrices"),
    ("wave_speeds", "models.wave_speeds"),
    ("validate", "models.validate"),
    ("relax", "models.relax"),
    ("relax_exact", "models.relax"),
    ("primitive_moments", "models.primitive_moments"),
]
_MODEL_CLASSES = (models.HMEModel, models.HSMModel, models.EulerModel)

# every span name gets a .calls and a .self_s metric
SPAN_METRICS = list(dict.fromkeys([name for _, name in _METHODS]
                                  + [name for _, _, name in _FUNCTIONS]))


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.failed_in = None
        self._saved = []

    def reset(self):
        # cleared in place: the installed wrappers hold these lists
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.failed_in = None

    def _wrap(self, name, fn, on_call=None, on_return=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            if on_call is not None:
                on_call(args)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                # the innermost open span sees the exception first
                if self.failed_in is None:
                    self.failed_in = name
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {
            "grid.spatial_update": (self._count_cells, None),
            "models.system_matrices": (self._count_matrix_bytes, None),
            "schemes.run": (None, self._count_reports),
            "cli.write_csv": (None, self._count_csv_bytes),
        }
        for owner, attr, name in _FUNCTIONS:
            self._patch(owner, attr, name, *hooks.get(name, (None, None)))
        for cls in _MODEL_CLASSES:
            for attr, name in _METHODS:
                self._patch(cls, attr, name, *hooks.get(name, (None, None)))
        # experiments.two_beam calls schemes.run, which drops the step
        # reports; run_with_reports is its public twin that keeps them
        traced = schemes.run_with_reports
        self._saved.append((experiments, "run", experiments.run))
        experiments.run = lambda field0, cfg: traced(field0, cfg)[0]

    def _patch(self, owner, attr, name, on_call, on_return):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, on_call, on_return))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # --- counters recorded at the layer boundaries ---
    def _count_cells(self, args):
        field, model = args[0], args[1]
        self.counts["grid.spatial_update.cell_updates"] += field.data.shape[0]
        if model.kind == "euler":
            self.counts["schemes.euler_substeps"] += 1

    def _count_matrix_bytes(self, args):
        w = np.asarray(args[1])
        n = w.shape[0] if w.ndim == 2 else 1
        m = args[0].n_vars
        self.counts["models.system_matrices.bytes"] += n * m * m * 8

    def _count_reports(self, args, out):
        reports = out[1]
        c = self.counts
        c["schemes.steps"] += len(reports)
        for rep in reports:
            c["schemes.phase.micro_s"] += rep.t_micro
            c["schemes.phase.restrict_s"] += rep.t_restrict
            c["schemes.phase.macro_s"] += rep.t_macro
            c["schemes.phase.match_s"] += rep.t_match

    def _count_csv_bytes(self, args, out):
        self.counts["cli.write_csv.bytes"] += os.path.getsize(args[1])

    # --- analysis ---
    def layer_totals(self):
        """Calls and self time (duration minus child-span cover) per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = Counter(), defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
        return calls, self_s

    def dump(self, path):
        """Write the spans as CSV rows: name, start_s, end_s, parent."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name},{t0 - origin:.9f},{t1 - origin:.9f},{parent}\n")
