"""The benchmark's hooks into the package still resolve.

`perfbench/tracer.py` wraps package functions by name,
`perfbench/kernels.py` imports package functions by name, and
`perfbench/sample.py` sets a workload up through `labcli` names and
`ScenarioConfig` fields, so renaming or removing one of them breaks the
benchmark without failing any other test.
"""

import ast
import dataclasses
import importlib
import importlib.util
import os

import numpy as np

import shrinkerlab
from shrinkerlab import curvegeo, fourier, labcli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer_mod = _load_tracer()
    original = fourier.deriv12
    with tracer_mod.Tracer() as tracer:
        assert fourier.deriv12 is not original
        fourier.deriv12(np.cos(fourier.grid(16)))
    assert fourier.deriv12 is original
    spans = tracer.arrays()
    assert list(spans["names"][spans["name_id"]]) == ["fourier.deriv12"]
    assert tracer.fft_calls == 2


def test_kernel_imports_resolve():
    with open(os.path.join(PERFBENCH, "kernels.py")) as fh:
        tree = ast.parse(fh.read())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == shrinkerlab.__name__:
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    "%s.%s" % (node.module, alias.name)
                names.append(alias.name)
    assert {"cfl_timestep", "mcf_step", "deriv12", "resample", "normal_graph",
            "assemble", "eigenpairs", "hausdorff_distance"} <= set(names)


def test_traced_hausdorff_is_the_swept_kernel():
    # the tracer times labcli._hausdorff_dense as "curvegeo.hausdorff" and the
    # kernel sweep times curvegeo.hausdorff_distance: they must be one routine
    assert labcli._hausdorff_dense is curvegeo.hausdorff_distance


def test_sample_setup_names_resolve():
    # every `labcli.<name>` and `config.<field>` that sample.py reads
    with open(os.path.join(PERFBENCH, "sample.py")) as fh:
        tree = ast.parse(fh.read())
    read = {"labcli": set(), "config": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in read:
            read[node.value.id].add(node.attr)
    for name in read["labcli"]:
        assert hasattr(labcli, name), "labcli.%s" % name
    fields = {f.name for f in dataclasses.fields(labcli.ScenarioConfig)}
    assert read["config"] <= fields, read["config"] - fields
    assert {"build_curve", "parse_config_text", "validate_config",
            "run"} <= read["labcli"]
    assert {"curve_specs", "m", "seed", "out"} <= read["config"]
