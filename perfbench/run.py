"""Scenario benchmark for shrinkerlab; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Every sample is a fresh ``python3 perfbench/sample.py`` process that runs one
workload once through ``labcli.validate_config`` and ``labcli.run``; samples
run one after another (a closed loop with one client). With ``--trace 0`` the
run takes untraced samples for about ``--seconds`` (at least one), with
set-up-only processes between them, and reports the end-to-end medians,
every time scaled to the reference host's speed by the host-speed ticks
timed in the same process. With ``--trace 1`` it takes a traced, an untraced and a
second traced sample at the same seed and one kernel sweep, and reports the
per-layer numbers. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the details of every sample go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

OUT_ROOT = ".perfbench_out"
DEADLINE_S = 170.0    # the whole run must end within 180 s
SETUP_WARMUPS = 2     # uncounted set-up processes that start each untraced run
SETUP_PROBES = 12     # least counted set-up-only processes per untraced run
TICK_REF_S = 0.0035   # one sample.SpeedTicks tick on the reference host

# counters that two traced runs at one seed must reproduce exactly
EXACT_COUNTS = ("flowcore.steps", "fourier.fft.calls",
                "ioutil.files_written", "ioutil.bytes_written")
OPENBLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads")


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def _blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if unreadable."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in OPENBLAS_THREAD_GETTERS:
            get = getattr(dll, symbol, None)
            if get is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                return get()
    return None


def _git_commit():
    """HEAD of the git checkout in the working directory, or None."""
    try:  # --git-dir: never the commit of a repository around the checkout
        proc = subprocess.run(["git", "--git-dir", ".git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    """Commit, interpreter, numpy and BLAS facts, and warnings on gaps."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"commit": _git_commit(), "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__,
           "blas": blas.get("name"), "blas_version": blas.get("version"),
           "blas_threads": _blas_threads()}
    warnings = []
    if env["commit"] is None:
        warnings.append("git commit unknown: not a git checkout")
    if env["blas_threads"] is None:
        warnings.append("BLAS thread count unreadable: no OpenBLAS thread "
                        "getter in numpy.libs")
    return env, warnings


class Runner:
    """Spawns sample processes one at a time under a shared deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.outdir = os.path.join(OUT_ROOT, workload)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p)

    def spawn(self, mode: str, spans: str | None = None) -> dict:
        """Run one sample process; returns its JSON result or {"error": ...}."""
        out = os.path.join(self.outdir, "out")
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, os.path.join(HERE, "sample.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", out]
        if spans:
            cmd += ["--spans", spans]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"error": "deadline reached before the sample started"}
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            return {"error": "sample killed at the %g s deadline" % DEADLINE_S}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"error": "no result line (exit code %d)" % proc.returncode}
        if proc.returncode != 0 and "error" not in result:
            result = {"error": "exit code %d" % proc.returncode}
        return result


def _failures(samples: list) -> list:
    """One message per failed sample: an error or a correctness gate."""
    problems = []
    for i, s in enumerate(samples):
        if "error" in s:
            problems.append("sample %d: %s" % (i, s["error"]))
        elif s["problems"]:
            problems.append("sample %d: %s" % (i, "; ".join(s["problems"])))
    return problems


def _determinism(samples: list) -> list:
    """Every sample's manifest file hashes must equal the first sample's."""
    done = [s for s in samples if "manifests" in s]
    return ["sample %d: manifest file hashes differ from sample 0" % i
            for i, s in enumerate(done[1:], start=1)
            if s["manifests"] != done[0]["manifests"]]


def scaled(sample: dict, name: str) -> float:
    """A time of a sample at the reference host's speed.

    Scaled by the mean host-speed tick timed in the same process, during the
    workload for a sample and straight after the set-up for a probe.
    """
    return sample[name] * TICK_REF_S / sample["tick_s"]


def untraced(runner: Runner, seconds: float):
    for _ in range(SETUP_WARMUPS):  # bytecode cache, idle CPU; not counted
        runner.spawn("setup")
    # one probe before each sample and the rest at the end, so the set-up
    # median spans the whole run rather than one moment of machine load
    probes, samples = [], []
    t0 = time.monotonic()
    while True:
        probes.append(runner.spawn("setup"))
        start = time.monotonic()
        samples.append(runner.spawn("run"))
        now = time.monotonic()
        if now + (now - start) - t0 > seconds:  # the next would overrun
            break
    while len(probes) < SETUP_PROBES:
        probes.append(runner.spawn("setup"))
    good = [s for s in samples if "error" not in s]
    set_up = [p for p in probes if "error" not in p]
    problems = _failures(samples) + _determinism(samples)
    problems += ["setup probe: %s" % p["error"] for p in probes if "error" in p]
    metrics, raw = {}, {}
    if good and set_up:
        for name, runs in (("setup_s", set_up), ("wall_s", good),
                           ("cpu_s", good)):
            raw[name] = statistics.median(r[name] for r in runs)
            metrics[name] = statistics.median(scaled(r, name) for r in runs)
        metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in good)
        raw["host_speed"] = TICK_REF_S / statistics.median(
            s["tick_s"] for s in good)
    return samples, metrics, problems, {"setup_probes": probes, "raw": raw}


def traced(runner: Runner):
    # the untraced sample runs between the two traced ones, so a steady
    # drift of the machine's speed cancels from the overhead
    spans = [os.path.join(runner.outdir, "spans-seed%d-%d.npz" % (runner.seed, k))
             for k in (1, 2)]
    runs = [runner.spawn("trace", spans=spans[0])]
    base = runner.spawn("run")
    runs.append(runner.spawn("trace", spans=spans[1]))
    kernels = runner.spawn("kernels")
    samples = [runs[0], base, runs[1]]
    problems = _failures(samples) + _determinism(samples)
    if "error" in kernels:
        problems.append("kernel sweep: %s" % kernels["error"])
    metrics = {}
    if all("error" not in s for s in samples):
        first, second = (r["layers"] for r in runs)
        for name in EXACT_COUNTS:
            if first[name] != second[name]:
                problems.append("%s differs between two traced runs: %d vs %d"
                                % (name, first[name], second[name]))
        for name, value in first.items():
            metrics[name] = (value if isinstance(value, int)
                             else statistics.median([value, second[name]]))
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in runs) - base["wall_s"])
    metrics.update(kernels.get("kernels", {}))
    return samples, metrics, problems, {"kernel_sweep": kernels}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "shrinkerlab", "__init__.py")):
        print("error: run from the repository root; src/shrinkerlab not found",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    os.makedirs(runner.outdir, exist_ok=True)
    units = declared_units(args.trace)
    if args.trace:
        samples, metrics, problems, extra = traced(runner)
    else:
        samples, metrics, problems, extra = untraced(runner, args.seconds)
    if metrics:
        problems += ["metric %s is not declared in BENCHMARK.json" % name
                     for name in sorted(set(metrics) - set(units))]
        problems += ["metric %s was not measured" % name
                     for name in sorted(set(units) - set(metrics))]
    env, warnings = environment()
    failed = len(_failures(samples))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "warnings": warnings, "attempted": len(samples),
        "failed": failed, "fail_frac": failed / len(samples),
        "problems": problems, "metrics": metrics,
        "samples": [{k: v for k, v in s.items() if k != "manifests"}
                    for s in samples],
        **extra,
    }
    path = os.path.join(runner.outdir, "result-seed%d-trace%d.json"
                        % (args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for warning in warnings:
        print("warning: %s" % warning, file=sys.stderr)
    for problem in problems:
        print("problem: %s" % problem, file=sys.stderr)
    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
