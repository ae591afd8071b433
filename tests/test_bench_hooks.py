"""The benchmark's calls into cplab: every name must resolve, every contract hold.

bench/tracer.py is loaded by path and only read, and bench/workloads.py is
parsed, not imported: a refactor that renames or deletes a traced function
or a counted point class, or changes what the workloads read of a Lax pair,
of spectral_match, of a trajectory or of the selfcheck battery, fails here
instead of in a benchmark run.
"""
import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from cplab import selfcheck
from cplab.dynamics import integrate
from cplab.lax import lax_pair, reduced_lax, spectral_match
from cplab.phase import SystemKind
from cplab.reduction import embed
from cplab.sampling import random_reduced, spec_for

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    tracer = load_tracer()
    missing = [f"{mod}.{name}" for mod, name in tracer.SPAN_TARGETS
               if not callable(getattr(importlib.import_module(f"cplab.{mod}"),
                                       name, None))]
    assert not missing


def test_constructor_targets_resolve():
    tracer = load_tracer()
    missing = [f"{mod}.{name}" for mod, name in tracer.CONSTRUCTOR_TARGETS
               if not hasattr(getattr(importlib.import_module(f"cplab.{mod}"),
                                      name, None), "__post_init__")]
    assert not missing


# what bench/workloads.py reads of the program, besides the traced names
WORKLOADS = TRACER.parent / "workloads.py"


def workloads_constant(name):
    """A literal module-level constant of bench/workloads.py, read unimported."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


@pytest.mark.parametrize("kind", ["Free", "HarmOsc", "P_I", "P_II", "P_IV"])
def test_lax_pairs_are_square_of_size_2n(kind):
    spec = spec_for(SystemKind(kind), tau=1.0)
    x = random_reduced(np.random.default_rng(0), 3, 1.0)
    for pair in (lax_pair(spec, embed(x), 0.7), reduced_lax(spec, x, 0.7)):
        L, M = pair
        assert pair.L is L and isinstance(L, np.ndarray) and L.shape == (6, 6)
        assert isinstance(M, np.ndarray) and M.shape == (6, 6)


def test_spectral_match_returns_verdict_and_deviation():
    spec = spec_for(SystemKind.P_II, tau=1.0)
    rng = np.random.default_rng(0)
    verdict = spectral_match(spec, random_reduced(rng, 2, 1.0),
                             random_reduced(rng, 2, 1.0))
    assert isinstance(verdict, tuple) and len(verdict) == 2
    ok, dev = verdict
    assert type(ok) is bool and type(dev) is float


def test_selfcheck_battery_is_named_as_the_bench_names_it():
    # each check names its report entry by the literal first argument of _check
    expected = workloads_constant("SELFCHECK_CHECKS")
    names = [(fn.__name__,
              re.search(r'_check\(\s*"(\w+)"', inspect.getsource(fn)).group(1))
             for fn in selfcheck.ALL_CHECKS]
    assert len(names) == 15
    assert names == [tuple(pair) for pair in expected]


@pytest.mark.parametrize("form", ["matrix", "reduced"])
def test_flow_reads_of_a_trajectory(form):
    # the flow workload reads len(states), times[-1], states[0] and the
    # fields of states[::10] + [final]: points of the start's class
    h, steps = workloads_constant("FLOW_STEPS")[3]
    x0 = selfcheck.tame_flow_start()
    start = embed(x0) if form == "matrix" else x0
    t1 = h * steps
    traj = integrate(spec_for(SystemKind.P_II, tau=1.0), start,
                     0.0, t1, h, g=x0.g)
    assert len(traj.states) == steps + 1 and abs(traj.times[-1] - t1) <= 1e-12
    points = traj.states[::10] + [traj.final]
    assert type(points) is list
    assert [type(s) for s in points] == [type(start)] * len(points)
    names = ("q", "p") if form == "matrix" else ("positions", "momenta")
    rows = list(range(0, steps + 1, 10)) + [steps]
    for k, s in zip(rows, points):
        for name, record in zip(names, (traj.states.a, traj.states.b)):
            assert getattr(s, name).tobytes() == record[k].tobytes()
        assert s.t == traj.times[k]
        if form == "reduced":
            assert (s.g, s.slice) == (x0.g, x0.slice)
    assert all(getattr(points[0], name).tobytes() == getattr(start, name).tobytes()
               for name in names)


def test_field_spans_are_sized_by_particle_number():
    # the tracer sizes a span by shape[0] of its first array argument, so a
    # field must take q (the positions) first, not a packed (2, ...) state
    steps, x0 = 5, random_reduced(np.random.default_rng(0), 3, 1.0)
    spec = spec_for(SystemKind.P_II, tau=1.0)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for start in (x0, embed(x0)):
            integrate(spec, start, 0.0, steps * 1e-3, 1e-3)
    finally:
        tracer.uninstall()
    fields = ("hamiltonians.reduced_vector_field", "hamiltonians.matrix_vector_field")
    spans = [span for span in tracer.spans if span[0] in fields]
    assert [sum(span[0] == name for span in spans) for name in fields] == [4 * steps] * 2
    assert {span[4] for span in spans} == {3}


BENCH_SOURCES = ("workloads.py", "run.py", "test_bench.py")


def cplab_reads(source):
    """(module, name) for each `from cplab[.X] import Y`, and for each attribute
    read on a name bound to a cplab module, in a bench source parsed unimported."""
    tree = ast.parse((TRACER.parent / source).read_text())
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names
                           if a.name == "cplab" or a.name.startswith("cplab."))
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "cplab" or node.module.startswith("cplab.")):
            for a in node.names:
                reads.append((node.module, a.name))
                if node.module == "cplab" and importlib.util.find_spec(f"cplab.{a.name}"):
                    modules[a.asname or a.name] = f"cplab.{a.name}"
    reads += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return reads


def resolves(module, name):
    """Whether `from module import name` finds an attribute or a submodule."""
    return hasattr(importlib.import_module(module), name) or (
        module == "cplab" and importlib.util.find_spec(f"cplab.{name}") is not None)


@pytest.mark.parametrize("source", BENCH_SOURCES)
def test_every_cplab_name_the_bench_reads_resolves(source):
    reads = cplab_reads(source)
    assert reads
    missing = sorted({f"{module}.{name}" for module, name in reads
                      if not resolves(module, name)})
    assert not missing
