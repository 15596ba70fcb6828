"""The three scenario workloads and the correctness gate of each.

A workload turns a seed into one or more scenario config texts (the flat
``key = value`` grammar that ``shrinkerlab.labcli`` parses) and checks the
summaries its runs return. Seed 0 is the reference config of each workload;
other seeds perturb only shape parameters inside a band where the gates
still hold. The gate tolerances are those of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import math
import random

SQRT2 = repr(math.sqrt(2.0))
LINEARIZATION_AMPLITUDES = "0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1"
ROUND_SPECTRUM = (1.0, 0.5, 0.5, -1.0, -1.0, -3.5, -3.5,
                  -7.0, -7.0, -11.5, -11.5, -17.0, -17.0)


def config_text(pairs: dict) -> str:
    return "".join("%s = %s\n" % kv for kv in pairs.items())


def _draw(seed: int, lo: float, hi: float) -> float:
    return random.Random(seed).uniform(lo, hi)


def separation_configs(seed: int, out: str) -> list:
    # b = 1/a keeps the ellipse's area equal to that of circle(1), so both
    # flows reach the same singular time
    if seed == 0:
        curve1 = "ellipse(1.1, 0.9090909090909091)"
    else:
        a = _draw(seed, 1.08, 1.12)
        curve1 = "ellipse(%r, %r)" % (a, 1.0 / a)
    return [config_text({
        "scenario": "separation", "curve1": curve1, "curve2": "circle(1)",
        "m": 512, "out": out, "tau_end": 7, "frame_dtau": 0.05, "cfl": 1.4,
    })]


def separation_gate(summaries: list) -> list:
    s = summaries[0]
    problems = []
    if s["verdict"] != "consistent":
        problems.append("verdict %s" % s["verdict"])
    if s["dhSlope"] is None or abs(s["dhSlope"] + 1.0) > 0.15:
        problems.append("dhSlope %r not within 0.15 of -1" % s["dhSlope"])
    if abs(s["Uinf"] + 2.0) > 0.2:
        problems.append("Uinf %r not within 0.2 of -2" % s["Uinf"])
    return problems


def rate_configs(seed: int, out: str) -> list:
    amp = 0.05 if seed == 0 else _draw(seed, 0.04, 0.06)
    return [config_text({
        "scenario": "rate", "curve1": "fourier(1, 0, 0, %r, 0)" % amp,
        "m": 256, "out": out, "tau_end": 4, "frame_dtau": 0.01, "cfl": 1.4,
    })]


def rate_gate(summaries: list) -> list:
    verdict = summaries[0]["verdict"]
    return [] if verdict == "consistent" else ["verdict %s" % verdict]


def linearization_configs(seed: int, out: str) -> list:
    # the gates are identities of the round shrinker of radius sqrt(2), so
    # this workload has nothing to perturb and ignores the seed
    curve = "circle(%s)" % SQRT2
    return [
        config_text({"scenario": "spectrum", "curve1": curve, "m": 2048,
                     "out": out + "/spectrum"}),
        config_text({"scenario": "gauge-residual", "curve1": curve,
                     "m": 2048, "out": out + "/gauge-residual",
                     "amplitudes": LINEARIZATION_AMPLITUDES}),
    ]


def linearization_gate(summaries: list) -> list:
    spectrum, sweep = summaries
    values = spectrum["eigenvalues"]
    problems = []
    if len(values) != len(ROUND_SPECTRUM):
        return ["%d eigenvalues, expected %d" % (len(values), len(ROUND_SPECTRUM))]
    value_err = max(abs(v - e) for v, e in zip(values, ROUND_SPECTRUM))
    pair_gap = max(abs(values[2 * k - 1] - values[2 * k]) for k in range(1, 7))
    if not value_err < 1e-3:
        problems.append("eigenvalue error %.3g (>= 1e-3)" % value_err)
    if not pair_gap < 1e-8:
        problems.append("pair gap %.3g (>= 1e-8)" % pair_gap)
    if not sweep["maxQuadRatio"] < 1.0:
        problems.append("maxQuadRatio %.3g (>= 1)" % sweep["maxQuadRatio"])
    if not sweep["ratioSpread"] < 3.0:
        problems.append("ratioSpread %.3g (>= 3)" % sweep["ratioSpread"])
    return problems


# name -> (config builder, gate)
WORKLOADS = {
    "separation-512": (separation_configs, separation_gate),
    "rate-frames-256": (rate_configs, rate_gate),
    "linearization-2048": (linearization_configs, linearization_gate),
}
