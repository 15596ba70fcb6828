"""Span tracer for the traced pass, installed from outside the package.

Each traced function is replaced by a wrapper that records one span: a name,
a start and an end from ``time.perf_counter``, and the index of the span that
was open when it began. ``labcli``, ``frequency``, ``gauge`` and ``spectral``
import functions by name, so a wrapper replaces every module-global binding
of the original function object across ``shrinkerlab.*``, not only the
attribute on the defining module. Every ``numpy.fft.rfft``/``irfft`` call is
counted, without a span. Spans stay in compact arrays until the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (defining module, attribute, span name). The dense Hausdorff routine is
# private to labcli today; its span is named after the curvegeo layer so the
# metric name survives moving it there. FlowTrajectory.save is a method.
TARGETS = (
    ("fourier", "deriv12", "fourier.deriv12"),
    ("fourier", "smooth", "fourier.smooth"),
    ("fourier", "trig_eval", "fourier.trig_eval"),
    ("fourier", "trig_eval_pair", "fourier.trig_eval_pair"),
    ("curvegeo", "geometry", "curvegeo.geometry"),
    ("curvegeo", "resample", "curvegeo.resample"),
    ("labcli", "_hausdorff_dense", "curvegeo.hausdorff"),
    ("flowcore", "run_mcf", "flowcore.run_mcf"),
    ("flowcore", "run_rmcf", "flowcore.run_rmcf"),
    ("flowcore", "estimate_singularity", "flowcore.estimate_singularity"),
    ("flowcore", "rescale_to_rmcf", "flowcore.rescale_to_rmcf"),
    ("flowcore", "FlowTrajectory.save", "flowcore.save"),
    ("gauge", "normal_graph", "gauge.normal_graph"),
    ("gauge", "residual", "gauge.residual"),
    ("gauge", "apply_L", "gauge.apply_L"),
    ("spectral", "assemble", "spectral.assemble"),
    ("spectral", "eigenpairs", "spectral.eigenpairs"),
    ("spectral", "rayleigh_bound", "spectral.rayleigh_bound"),
    ("frequency", "monitor", "frequency.monitor"),
    ("labcli", "run", "labcli.run"),
    ("labcli", "_write_manifest", "labcli.manifest"),
)

RUN_SPANS = ("flowcore.run_mcf", "flowcore.run_rmcf")


class Tracer:
    """Records spans of the TARGETS while installed (a context manager)."""

    def __init__(self):
        self.names = [name for _, _, name in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.fft_calls = 0
        self.flow_frames = 0      # frames in trajectories run_mcf/run_rmcf return
        self.monitor_frames = 0   # frames the frequency monitor processed
        self._stack = [-1]
        self._undo = []

    def _span(self, fn, nid, on_return=None):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result
        return traced

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.fft_calls += 1
            return fn(*args, **kwargs)
        return counted

    def _on_flow(self, traj):
        self.flow_frames += len(traj.times)

    def _on_monitor(self, trace):
        self.monitor_frames += len(trace.columns["tau"])

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        hooks = {"flowcore.run_mcf": self._on_flow,
                 "flowcore.run_rmcf": self._on_flow,
                 "frequency.monitor": self._on_monitor}
        modules = [mod for key, mod in sys.modules.items()
                   if key == "shrinkerlab" or key.startswith("shrinkerlab.")]
        for nid, (module, attr, name) in enumerate(TARGETS):
            owner = sys.modules["shrinkerlab." + module]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                self._replace(owner, attr, self._span(getattr(owner, attr), nid))
                continue
            original = getattr(owner, attr)
            wrapper = self._span(original, nid, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        for attr in ("rfft", "irfft"):
            self._replace(np.fft, attr, self._count_fft(getattr(np.fft, attr)))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays (parent -1 marks a root)."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def _mask(spans, names) -> np.ndarray:
    ids = [i for i, n in enumerate(spans["names"]) if n in names]
    return np.isin(spans["name_id"], ids)


def _covered(spans, names) -> float:
    """Wall time covered by spans with these names, nested ones counted once.

    Spans are stored in start order, so a span nests inside an earlier one
    exactly when it starts before the latest end seen so far.
    """
    sel = _mask(spans, names)
    start, end = spans["start"][sel], spans["end"][sel]
    if not start.size:
        return 0.0
    reach = np.maximum.accumulate(end)
    top = np.ones(start.size, dtype=bool)
    top[1:] = start[1:] >= reach[:-1]
    return float(np.sum(end[top] - start[top]))


def layer_metrics(spans, fft_calls: int, flow_frames: int,
                  monitor_frames: int) -> dict:
    """Per-layer counts and seconds from one traced run's spans."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    n = len(spans["names"])
    calls_by = np.bincount(spans["name_id"], minlength=n)
    self_by = np.bincount(spans["name_id"], weights=self_time, minlength=n)
    index = {name: i for i, name in enumerate(spans["names"])}

    def calls(*names):
        return int(sum(calls_by[index[x]] for x in names))

    def self_s(*names):
        return float(sum(self_by[index[x]] for x in names))

    # a Heun step is one fourier.smooth call inside a run_mcf/run_rmcf span;
    # run spans never nest, so each smooth span is tested against the last
    # run span that started before it
    runs = _mask(spans, RUN_SPANS)
    run_start, run_end = spans["start"][runs], spans["end"][runs]
    smooth = _mask(spans, ("fourier.smooth",))
    s_start = spans["start"][smooth]
    k = np.searchsorted(run_start, s_start, side="right") - 1
    inside = (k >= 0) & (s_start < run_end[np.maximum(k, 0)])
    steps = int(np.count_nonzero(inside))
    run_s = float(np.sum(run_end - run_start))

    return {
        "flowcore.steps": steps,
        "flowcore.run.self_s": self_s(*RUN_SPANS),
        "flowcore.run.us_per_step": 1e6 * run_s / steps if steps else 0.0,
        "flowcore.frames": flow_frames,
        "flowcore.rescale.s": _covered(spans, ("flowcore.estimate_singularity",
                                               "flowcore.rescale_to_rmcf")),
        "flowcore.save.s": _covered(spans, ("flowcore.save",)),
        "fourier.deriv12.calls": calls("fourier.deriv12"),
        "fourier.deriv12.self_s": self_s("fourier.deriv12"),
        "fourier.smooth.calls": calls("fourier.smooth"),
        "fourier.smooth.self_s": self_s("fourier.smooth"),
        "fourier.trig_eval.calls": calls("fourier.trig_eval",
                                         "fourier.trig_eval_pair"),
        "fourier.trig_eval.self_s": self_s("fourier.trig_eval",
                                           "fourier.trig_eval_pair"),
        "fourier.fft.calls": fft_calls,
        "curvegeo.hausdorff.calls": calls("curvegeo.hausdorff"),
        "curvegeo.hausdorff.s": _covered(spans, ("curvegeo.hausdorff",)),
        "curvegeo.resample.calls": calls("curvegeo.resample"),
        "curvegeo.resample.s": _covered(spans, ("curvegeo.resample",)),
        "curvegeo.geometry.calls": calls("curvegeo.geometry"),
        "gauge.normal_graph.calls": calls("gauge.normal_graph"),
        "gauge.normal_graph.self_s": self_s("gauge.normal_graph"),
        "gauge.residual.s": _covered(spans, ("gauge.residual", "gauge.apply_L")),
        "spectral.assemble.calls": calls("spectral.assemble"),
        "spectral.assemble.s": _covered(spans, ("spectral.assemble",)),
        "spectral.eigensolve.calls": calls("spectral.eigenpairs",
                                           "spectral.rayleigh_bound"),
        "spectral.eigensolve.s": _covered(spans, ("spectral.eigenpairs",
                                                  "spectral.rayleigh_bound")),
        "frequency.monitor.self_s": self_s("frequency.monitor"),
        "frequency.monitor.frames": monitor_frames,
        "labcli.self_s": self_s("labcli.run"),
        "labcli.manifest.s": _covered(spans, ("labcli.manifest",)),
    }
