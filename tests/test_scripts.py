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
    stacked = {"embed_reduce", "closed_form_oracle", "trace_oracle"}
    one_point = {"reduce", "reduced_vector_field_q", "reduced_vector_field_p",
                 "rk4_step_matrix", "rk4_step_reduced", "zero_curvature_residual",
                 "spectral_match"}
    per_point = {"spectral_duality"}
    per_step = {"integrate_matrix", "integrate_reduced"}
    per_state = {"monitor_invariants"}
    per_stack = {"power_traces"}
    per_kind = {"lax_l"}
    assert set(table["layers"]) == (stacked | one_point | per_point | per_step | per_state
                                     | per_stack | per_kind)
    assert table["reference_kernel_s"] > 0  # the speed that rescaled the rounds
    for name, layer in table["layers"].items():
        assert set(layer) == {"n2", "n3"}
        for row in layer.values():
            timed = ({"point_loop_us", "stack_us"} if name in stacked
                     else {"us_per_point"} if name in per_point
                     else {"us_per_step"} if name in per_step
                     else {"us_per_state"} if name in per_state
                     else {"lambda_stack_us", "monitor_block_us"} if name in per_stack
                     else {"Free_us", "HarmOsc_us", "P_I_us", "P_II_us", "P_IV_us"}
                     if name in per_kind
                     else {"us_per_call"})
            extra = {"speedup"} if name in stacked else set()
            assert set(row) == timed | {f"{f}_iqr" for f in timed} | extra
            for field in timed:
                assert row[field] > 0 and row[f"{field}_iqr"] >= 0


# the entry names of run_selfcheck, in ALL_CHECKS order
SELFCHECK_ENTRIES = [
    "level_set_embedding", "round_trip", "hamiltonian_oracle_equivalence",
    "appendix_traces", "spectral_duality", "zero_curvature", "isospectral_conservation",
    "equivariance", "ruijsenaars_demo", "p4_selfduality", "dual_p2_interaction_structure",
    "confluence", "mmkdv", "core_invariants", "charpoly_cross_check"]


def test_report_digest():
    digest = load_script("report_digest")
    config = digest.CONFIGS / "simulate_free.json"
    lines = digest.digests(1, [config])
    # one line per selfcheck entry, so a moved value names its criterion
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        *(f"selfcheck seed 0 {name}" for name in SELFCHECK_ENTRIES),
        "simulate_free.json free_n3.csv", "simulate_free.json simulate_free.json",
        "simulate_free.json exit"]
    assert all(len(line.split()[-1]) == 64 for line in lines[:-1])
    assert lines[-1] == "simulate_free.json exit 0"
    # the report is digested without its meta block, so a rerun digests alike
    assert digest.config_digests(config) == lines[len(SELFCHECK_ENTRIES):]
