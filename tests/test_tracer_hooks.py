"""The benchmark's per-layer hooks still find what they wrap.

``perfbench/tracer.py`` replaces each layer's entry point by name, in
every module that binds it.  A moved import or a renamed method would
drop that layer's span from the traced run without an error, so this
checks every target the tracer names, loading the tracer from its file
as it is.
"""

import importlib.util
import inspect
import pathlib

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = load_tracer()
MODULES = TRACER._import_layers()

#: the methods install() wraps by hand, each with the number of
#: positional arguments its wrapper passes on (None: any)
EXTRA_METHODS = [
    ("repro.machine.cpu", "CPU", "run", None),
    ("repro.machine.cpu", "CPU", "run_steps", None),
    ("repro.watchpoints.engine", "WatchpointEngine", "on_hit", 4),
    ("repro.server.handlers", "RequestRouter", "dispatch", 4),
]


@pytest.mark.parametrize("span, home, attr, users", TRACER.FUNCTIONS,
                         ids=[entry[0] for entry in TRACER.FUNCTIONS])
def test_function_bound_where_callers_look_it_up(span, home, attr, users):
    function = getattr(MODULES[home], attr, None)
    assert callable(function), "%s.%s is gone" % (home, attr)
    for user in users:
        assert getattr(MODULES[user], attr, None) is function, \
            "%s no longer binds %s.%s" % (user, home, attr)


METHODS = [(home, cls, meth, None)
           for _span, home, cls, meth in TRACER.METHODS] + EXTRA_METHODS


@pytest.mark.parametrize("home, cls_name, meth, arity", METHODS,
                         ids=["%s.%s" % (cls, meth)
                              for _home, cls, meth, _arity in METHODS])
def test_method_exists(home, cls_name, meth, arity):
    cls = getattr(MODULES[home], cls_name)
    method = getattr(cls, meth, None)
    assert callable(method), "%s.%s.%s is gone" % (home, cls_name, meth)
    if arity is not None:
        assert len(inspect.signature(method).parameters) == arity
