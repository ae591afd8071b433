"""Smoke tests of the example scripts: each runs end to end at a small size.

The scripts are loaded by path, as `python scripts/<name>.py` would run them.
"""
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_confluence_breakdown_demo(capsys):
    load_script("confluence_breakdown_demo").demo(0.1, 0.5)
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "eps = 0.1, theta = 0.5"
    assert len(rows) == 2 + 5  # header lines, then one row per coupling


def test_duality_scan(capsys):
    load_script("duality_scan").scan(0, 1.0, [2])
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1 + 4  # header, then one row per kind
    for row in rows[1:]:
        assert all(float(d) < 1e-8 for d in row.split()[2:])


def test_bench_layers():
    table = load_script("bench_layers").measure(sizes=(2, 3), points=4, repeats=1)
    stacked = {"embed_reduce", "closed_form_oracle"}
    one_point = {"reduce", "reduced_vector_field_q", "reduced_vector_field_p",
                 "rk4_step_matrix", "rk4_step_reduced"}
    assert set(table["layers"]) == stacked | one_point
    for name, layer in table["layers"].items():
        assert set(layer) == {"n2", "n3"}
        for row in layer.values():
            if name in stacked:
                assert row["point_loop_us"] > 0 and row["stack_us"] > 0
            else:
                assert set(row) == {"us_per_call"} and row["us_per_call"] > 0
