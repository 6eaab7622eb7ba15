"""perfbench/tracing.py still finds every name it wraps in netfit.

The traced benchmark run replaces functions where the CLI's modules bind
them; a rename or a lazy import in netfit would make it fail only when
the benchmark runs. This loads the tracer as perfbench does and checks
its replacements against the modules as they are.
"""

import importlib.util
from pathlib import Path


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_replaced_name_is_bound_where_it_is_replaced():
    replacements = tracing.instrument(tracing.Tracer())
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in replacements
               if attr not in vars(owner)]
    assert not missing, f"perfbench/tracing.py replaces names that are gone: {missing}"


def test_patched_sets_and_restores_every_name():
    replacements = tracing.instrument(tracing.Tracer())
    before = {key: vars(key[0])[key[1]] for key in replacements}
    with tracing.patched(replacements):
        assert all(vars(owner)[attr] is value for (owner, attr), value in replacements.items())
    assert all(vars(owner)[attr] is old for (owner, attr), old in before.items())
