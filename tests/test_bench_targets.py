"""Every name the benchmark's tracer wraps or reads must exist in ordrank.

``ordbench/tracer.py`` replaces functions and methods by wrappers and reads
the hit counts of lru caches.  A renamed or deleted name would only surface
when the benchmark runs traced, so it is resolved here instead, without
installing the tracer.
"""
import importlib.util
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "ordbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "ordbench_" + name, os.path.join(BENCH, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_resolve():
    _load("workloads")  # imports every module the workloads exercise
    tracer = _load("tracer")
    assert tracer.TARGETS and tracer.CACHES
    for modname, attr, name, mode in tracer.TARGETS:
        mod = sys.modules[modname]
        if "." in attr:
            # methods are wrapped through the class __dict__
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(mod, cls_name)).get(meth)), (modname, attr)
        else:
            assert callable(getattr(mod, attr, None)), (modname, attr)
    for modname, attr, name in tracer.CACHES:
        cache = getattr(sys.modules[modname], attr, None)
        assert callable(getattr(cache, "cache_info", None)), (modname, attr)
