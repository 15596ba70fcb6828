"""One benchmark sample: a fresh process that runs one workload once.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/sample.py --mode {setup,run,trace,kernels} \
        --workload NAME --seed N --out DIR [--spans FILE]

``setup`` times only the set-up and then a burst of host-speed ticks;
``run`` also runs the workload through ``labcli.run`` with tracing off and
a host-speed tick every ``TICK_INTERVAL_S``; ``trace`` runs it with the span
tracer installed and no ticks; ``kernels`` runs the kernel sweep. The last
line of stdout is one JSON object with the measurements; a failure prints
``{"error": ...}`` and exits 1.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

TICK_INTERVAL_S = 0.5  # wall time between host-speed ticks during a run
SETUP_TICKS = 50       # back-to-back ticks after a set-up


def _setup(workload: str, seed: int, out: str):
    """Import the package, parse and validate the configs, build the curves."""
    import shrinkerlab
    from shrinkerlab import labcli

    expected = os.path.realpath(os.path.join("src", "shrinkerlab"))
    if os.path.dirname(os.path.realpath(shrinkerlab.__file__)) != expected:
        raise RuntimeError("imported shrinkerlab from %s, not from ./src"
                           % shrinkerlab.__file__)
    make_configs, _ = WORKLOADS[workload]
    configs = [labcli.validate_config(labcli.parse_config_text(text))
               for text in make_configs(seed, out)]
    for config in configs:
        for spec in config.curve_specs:
            labcli.build_curve(spec, config.m, config.seed)
    return labcli, configs


class SpeedTicks:
    """Times a fixed host-speed loop, the tick, while the workload runs.

    The machine's speed changes from one second to the next, so a timed
    process also measures how fast the host runs meanwhile. A tick is about
    4 ms of small FFTs and plain Python and uses no shrinkerlab code. While
    installed (a context manager), a SIGALRM handler in the main thread runs
    one every ``TICK_INTERVAL_S`` of wall time; ``wall_s`` and ``cpu_s`` sum
    what the ticks took, for the caller to subtract.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.cos(np.linspace(0.0, 6.0, 1024)).reshape(512, 2)
        self.times = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._previous = None

    def tick(self) -> None:
        np = self._np
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(100):
            np.fft.irfft(np.fft.rfft(self._x, axis=0), 512, axis=0)
        total = 0
        for i in range(20000):
            total += i % 7
        wall = time.perf_counter() - wall0
        self.times.append(wall)
        self.wall_s += wall
        self.cpu_s += time.process_time() - cpu0

    def mean_s(self) -> float:
        if not self.times:  # the run was shorter than one interval
            self.tick()
        return sum(self.times) / len(self.times)

    def _on_alarm(self, signum, frame) -> None:
        self.tick()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def _tree_size(root: str):
    files = size = 0
    for path, _, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(path, name))
    return files, size


def _run(workload: str, seed: int, out: str, spans_path: str | None) -> dict:
    labcli, configs = _setup(workload, seed, out)
    result = {"setup_s": time.perf_counter() - _T0}
    ticks = SpeedTicks()
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
    # the tracer counts every FFT call, so a traced run has no ticks
    with tracer or ticks:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        summaries = [labcli.run(config) for config in configs]
        result["wall_s"] = time.perf_counter() - wall0 - ticks.wall_s
        result["cpu_s"] = time.process_time() - cpu0 - ticks.cpu_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is None:
        result["tick_s"] = ticks.mean_s()

    _, gate = WORKLOADS[workload]
    result["problems"] = gate(summaries)
    manifests = []
    for config in configs:
        with open(os.path.join(config.out, "manifest.json")) as fh:
            manifests.append(json.load(fh)["files"])
    result["manifests"] = manifests
    result["files_written"], result["bytes_written"] = _tree_size(out)

    if tracer is not None:
        import numpy as np
        from tracer import layer_metrics

        spans = tracer.arrays()
        np.savez(spans_path, **spans)
        layers = layer_metrics(spans, tracer.fft_calls, tracer.flow_frames,
                               tracer.monitor_frames)
        layers["ioutil.files_written"] = result["files_written"]
        layers["ioutil.bytes_written"] = result["bytes_written"]
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "trace", "kernels"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    try:
        if args.mode == "setup":
            _setup(args.workload, args.seed, args.out)
            result = {"setup_s": time.perf_counter() - _T0}
            ticks = SpeedTicks()
            for _ in range(SETUP_TICKS):
                ticks.tick()
            result["tick_s"] = ticks.mean_s()
        elif args.mode == "kernels":
            from kernels import sweep
            result = {"kernels": sweep()}
        else:
            spans = args.spans if args.mode == "trace" else None
            if args.mode == "trace" and not spans:
                parser.error("--mode trace needs --spans")
            result = _run(args.workload, args.seed, args.out, spans)
    except Exception as exc:  # reported to the parent as a failed sample
        traceback.print_exc()
        print(json.dumps({"error": "%s: %s" % (type(exc).__name__, exc)}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
