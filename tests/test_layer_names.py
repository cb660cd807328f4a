"""The functions behind the benchmark's per-layer metrics stay where the
metrics name them.

perfbench's tracer wraps a public function only in the module that
defines it (its ``__module__``) and names the span ``module.function``.
A function moved to another module drops out of the trace, and its
per-layer metric reads 0 instead of failing; these tests fail instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

# The functions the per-layer metrics time, by the module their names carry.
LAYER_FUNCTIONS = {
    "kernels": ("cylinder_kernel", "cylinder_trace", "heat_trace"),
    "summation": ("lattice_sum", "de_quadrature"),
    "energy": (
        "total_energy_regularized", "energy_density_regularized", "energy_density_renormalized",
        "twisted_energy_orbit_sum", "extract_cylinder_coefficients", "theorem1_check",
    ),
    "orbits": ("local_spectral_density", "green_im_diag", "local_counting"),
    "spectrum": ("counting_decomposition", "counting_function", "eigenvalues"),
    "verify": ("run_checks",),
}
# cylinder_kernel's spans are named by route: kernels.<route>[.<geometry>]
ROUTE_LABELS = {"closed_form", "image_sum", "mode_sum"}
# Metrics of functions the package no longer has: they read 0 until the
# benchmark drops them (ROADMAP item 1).
RETIRED = {
    ("summation", "lorentzian_cosine_tail"),
    ("summation", "mittag_leffler_sum"),
    ("summation", "telescoping_check"),
}


@pytest.mark.parametrize(
    "module_name,name",
    [(module, name) for module, names in LAYER_FUNCTIONS.items() for name in names],
    ids=lambda value: value,
)
def test_each_layer_function_is_defined_in_the_module_its_metric_names(module_name, name):
    module = importlib.import_module(f"vacuum1d.{module_name}")
    func = vars(module)[name]
    assert inspect.isfunction(func)
    assert func.__module__ == module.__name__


def test_the_guard_covers_every_function_the_per_layer_report_names():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    named = set()
    for metric, _, _ in run.per_layer_spec():
        module, layer = metric.split(".")[:2]
        if module not in LAYER_FUNCTIONS:
            continue  # import, cli, accuracy and trace metrics
        if module == "verify":
            layer = layer.removesuffix("_s")
            if layer in run.CHECK_NAMES:
                continue  # the registry's checks, wrapped one by one in verify.CHECKS
        elif module == "kernels" and layer in ROUTE_LABELS:
            layer = "cylinder_kernel"
        named.add((module, layer))
    listed = {(module, name) for module, names in LAYER_FUNCTIONS.items() for name in names}
    assert named - RETIRED <= listed, (named - RETIRED) - listed
    assert RETIRED <= named  # a retired metric that leaves the report leaves this list too
