"""The benchmark tracer's hooks bind arguments of the program's functions by
name, so a renamed parameter breaks every traced run but no untraced one.
This test loads ``bench/tracer.py`` and checks every name a hook binds
against the signature of the function it hooks."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# a hook reads an argument as bound["name"] or _arguments(fn, args, kwargs)["name"]
BOUND_NAME = re.compile(r'(?:\bbound|_arguments\(fn, args, kwargs\))\["(\w+)"\]')

# names the hooks bind, at least: the scan must find these
EXPECTED = {
    "diffusion.loss_and_grad": {"m", "batch"},
    "quadrature.oracle_conditional_denoiser": {"x", "sigma"},
    "trajectory.save_trajectory": {"path"},
}


def test_every_name_a_tracer_hook_binds_is_a_parameter():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooked = {target: set(BOUND_NAME.findall(inspect.getsource(hook)))
              for target, hook in tracer.HOOKS.items()}
    for target, names in EXPECTED.items():
        assert names <= hooked.get(target, set()), target
    for target, names in hooked.items():
        module, function = target.split(".")
        fn = getattr(importlib.import_module(f"so3denoise.{module}"), function)
        missing = names - set(inspect.signature(fn).parameters)
        assert not missing, f"{target} has no parameter {sorted(missing)} for its tracer hook"
