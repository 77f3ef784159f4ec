"""Caps and tolerances are module constants read at call time, never
keyword options, so no public function grows a per-call knob for them."""

import importlib
import inspect
import pkgutil

import timdof

MODULES = [importlib.import_module(f"timdof.{info.name}")
           for info in pkgutil.iter_modules(timdof.__path__) if info.name != "__main__"]


def _public_functions():
    """(qualified name, callable) for every public function and public method of the package."""
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr in vars(obj):
                    method = getattr(obj, attr)
                    if not attr.startswith("_") and (inspect.isfunction(method) or inspect.ismethod(method)):
                        yield f"{mod.__name__}.{name}.{attr}", method


def test_walk_reaches_the_capped_functions():
    names = {name for name, _ in _public_functions()}
    for capped in ("timdof.demand_graph.dof_upper_bound_lp", "timdof.linear_sim.generic_rank",
                   "timdof.linear_sim.random_scheme", "timdof.linear_sim.scheme_from_schedule",
                   "timdof.schemes.optimal_tdma", "timdof.topology.is_chordal_bipartite",
                   "timdof.schemes.ServedSet.from_map"):
        assert capped in names


def test_no_public_function_takes_a_cap_or_tolerance():
    knobs = [f"{name}({param})" for name, fn in _public_functions()
             for param in inspect.signature(fn).parameters
             if param.endswith("_limit") or param == "rel_tol"]
    assert knobs == []
