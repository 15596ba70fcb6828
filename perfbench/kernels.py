"""Per-call cost of the hot kernels on a fixed ellipse at several m.

``kernel.mcf_step`` times the public single step, which includes the CFL
check, input validation and an arclength resample; it is not the in-loop
step cost, which the traced pass reports as ``flowcore.run.us_per_step``.
"""

from __future__ import annotations

import statistics
import time

SIZES = (256, 512, 1024, 2048)
KERNELS = ("mcf_step", "deriv12", "resample", "normal_graph",
           "assemble_eigenpairs", "hausdorff_distance")

_BATCH_S = 0.002   # grow a batch of calls until one batch takes this long
_BATCHES = 3


def _us_per_call(fn) -> float:
    """Median per-call time over a few batches, after one warm-up batch."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= _BATCH_S:
            break
        n *= 2
    per_call = []
    for _ in range(_BATCHES):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        per_call.append((time.perf_counter() - t0) / n)
    return 1e6 * statistics.median(per_call)


def sweep() -> dict:
    """``kernel.<fn>.us.m<m>`` for every kernel and size."""
    from shrinkerlab import (assemble, eigenpairs, ellipse, hausdorff_distance,
                             normal_graph, resample)
    from shrinkerlab.flowcore import cfl_timestep, mcf_step
    from shrinkerlab.fourier import deriv12

    out = {}
    for m in SIZES:
        curve = ellipse(1.1, 1.0 / 1.1, m=m)
        outer = curve.scaled(1.01)
        dt = cfl_timestep(curve)
        calls = {
            "mcf_step": lambda: mcf_step(curve, dt),
            "deriv12": lambda: deriv12(curve.points),
            "resample": lambda: resample(curve),
            "normal_graph": lambda: normal_graph(curve, outer),
            "assemble_eigenpairs": lambda: eigenpairs(assemble(curve)),
            "hausdorff_distance": lambda: hausdorff_distance(curve, outer),
        }
        for name in KERNELS:
            out["kernel.%s.us.m%d" % (name, m)] = _us_per_call(calls[name])
    return out
