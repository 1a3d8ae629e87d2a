"""Every name the benchmark's tracer (perfbench/tracer.py) wraps or rebinds
exists in the package, so that renaming one fails the test suite and not only
a traced benchmark run.

The tracer's tables are read from its file.  It imports qmodver only inside
`Tracer.install()`, which is never called here, so nothing gets wrapped.
"""

import importlib
import importlib.util
import pathlib

import pytest

from qmodver.series import PuiseuxSeries

_PATH = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def module(name):
    return importlib.import_module(f"qmodver.{name}")


@pytest.mark.parametrize("attr", [attr for attr, _ in tracer.SERIES_METHODS])
def test_each_traced_series_method_is_defined_on_the_class(attr):
    raw = PuiseuxSeries.__dict__.get(attr)
    assert raw is not None, f"PuiseuxSeries.{attr} is gone"
    assert callable(raw.__func__ if isinstance(raw, staticmethod) else raw)


@pytest.mark.parametrize("modname, attr", [(m, a) for m, a, _ in tracer.FUNCTIONS])
def test_each_traced_function_is_defined_in_its_module(modname, attr):
    assert callable(getattr(module(modname), attr, None)), f"qmodver.{modname}.{attr} is gone"


@pytest.mark.parametrize("modname, attr", tracer.FROM_IMPORTS)
def test_each_rebound_import_is_a_traced_function(modname, attr):
    # install() rebinds a name by the identity of the function it wraps
    targets = [getattr(module(m), a, None) for m, a, _ in tracer.FUNCTIONS]
    bound = getattr(module(modname), attr, None)
    assert bound is not None, f"qmodver.{modname} no longer binds {attr}"
    assert any(bound is t for t in targets), f"qmodver.{modname}.{attr} is no traced function"
