import csv
import json
from pathlib import Path

import numpy as np
import pytest

import cplab.mmkdv as mmkdv
from cplab import cli, selfcheck
from cplab.cli import main
from cplab.errors import ConfigError, NotOnLevelSet
from cplab.lax import SPECTRAL_TOL, default_lambda_grid, spectral_match
from cplab.reduction import Slice
from cplab.sampling import random_level_set_point


CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfigHandling:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["selfcheck", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"command": "selfcheck", "bogus": 1})
        assert main(["selfcheck", "--config", cfg]) == 2

    def test_command_mismatch(self, tmp_path):
        cfg = write(tmp_path, "c.json", {"command": "traces"})
        assert main(["selfcheck", "--config", cfg]) == 2


    @pytest.mark.parametrize("initial", [
        {"reduced": {"positions": [0.0, 1.0], "momenta": [0.0]}},
        {"matrix": {"q": [[0.0, 1.0]], "p": [[0.0, 1.0]]}},
        {"random": False},
        {"reduced": {"positions": [0.0, 1.0], "momenta": [0.0, 0.0]},
         "matrix": {"q": [[0.0]], "p": [[0.0]]}},
    ], ids=["reduced_lengths", "non_square_matrix", "random_false",
            "reduced_and_matrix"])
    def test_bad_initial_state_is_config_error(self, tmp_path, capsys, initial):
        cfg = write(tmp_path, "sim.json", {
            "command": "simulate", "system": {"kind": "Free"}, "n": 2,
            "initial": initial, "time": {"t0": 0.0, "t1": 1.0, "h": 0.1},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, block, literal", [
        ("simulate", "time", "Infinity"), ("simulate", "time", "1e999"),
        ("simulate", "time", "1" * 401), ("simulate", "time", "NaN"),
        ("verify-duality", "g", "Infinity"), ("verify-duality", "g", "-Infinity"),
        ("verify-duality", "system", "NaN"), ("verify-duality", "t", "NaN"),
    ], ids=["t1_inf", "t1_1e999", "t1_401_digits", "t1_nan", "g_inf", "g_minus_inf",
            "tau_nan", "t_nan"])
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, command,
                                                  block, literal):
        # json parses these as inf, NaN or an int beyond float range
        text = {
            "time": '"system": {"kind": "Free"}, "n": 2, '
                    '"time": {"t0": 0.0, "t1": %s, "h": 0.1}',
            "g": '"system": {"kind": "P_II"}, "g": %s',
            "system": '"system": {"kind": "P_II", "autonomous": true, "tau": %s}',
            "t": '"system": {"kind": "P_II"}, "t": %s',
        }[block] % literal
        path = tmp_path / "c.json"
        path.write_text('{"command": "%s", %s}' % (command, text))
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "is not a finite float" in capsys.readouterr().err

    @pytest.mark.parametrize("config, flags", [
        ({"command": "selfcheck"}, ["--seed", "-1"]),
        ({"command": "selfcheck", "seed": 3.0}, []),
        ({"command": "verify-duality", "system": {"kind": "P_II"}, "n": 3.0}, []),
    ], ids=["seed_flag_negative", "seed_float", "n_float"])
    def test_integer_inputs_are_validated(self, tmp_path, capsys, config, flags):
        # the --seed override meets the schema's minimum, and JSON Schema's
        # integer type (which counts 3.0) is narrowed to ints
        cfg = write(tmp_path, "c.json", config)
        command = config["command"]
        assert main([command, "--config", cfg, "--out", str(tmp_path)] + flags) == 2
        assert "config rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["level_set", "reduce", "duality"])
    def test_unread_tolerances_rejected(self, tmp_path, key):
        # the duality gate is lax.SPECTRAL_TOL: no tolerance is settable
        cfg = write(tmp_path, "c.json", {
            "command": "verify-duality",
            "system": {"kind": "P_II", "autonomous": True, "tau": 1.0},
            "tolerances": {key: 1e-30},
        })
        assert main(["verify-duality", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("config, key, value", [
        ({"command": "spectral", "system": {"kind": "P_I"}, "n": 2},
         "lambda_grid", {"points_per_circle": 10, "radii": [0.5, 2.0]}),
        ({"command": "traces"},
         "trace", {"n_max": 8, "trials": 50, "max_even_l": 12}),
        ({"command": "confluence"}, "eps_sweep", [0.1, 0.05, 0.025]),
        ({"command": "simulate", "system": {"kind": "Free"}, "n": 2,
          "time": {"t0": 0.0, "t1": 0.01, "h": 0.01}},
         "monitor_lambdas", [1.0, [0.0, 2.0]]),
    ], ids=["lambda_grid", "trace", "eps_sweep", "monitor_lambdas"])
    def test_removed_keys_rejected(self, tmp_path, config, key, value):
        # each key once set a size, grid or list at its default; the same
        # config without it runs
        command = config["command"]
        without = write(tmp_path, "ok.json", config)
        assert main([command, "--config", without, "--out", str(tmp_path)]) == 0
        cfg = write(tmp_path, "c.json", {**config, key: value})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_kind_is_config_error(self, tmp_path, capsys):
        # the one gate on the kind: every SystemKind has every formula
        cfg = write(tmp_path, "c.json", {"command": "spectral", "system": {"kind": "P_III"}})
        assert main(["spectral", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config rejected" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="'P_III' is not a valid SystemKind"):
            cli.system_spec({"system": {"kind": "P_III"}})

    def test_tau_without_autonomous_is_config_error(self, tmp_path, capsys):
        # tau alone would be stored and never read: the non-autonomous system would run
        cfg = write(tmp_path, "c.json", {"command": "verify-duality",
                                         "system": {"kind": "P_II", "tau": 1.0}})
        assert main(["verify-duality", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            "config error: tau is given exactly when the system is autonomous\n"

    def test_every_schema_key_is_read(self):
        # a key the schema accepts but no command reads would be silently ignored
        schema = json.loads((Path(cli.__file__).parent / "config_schema.json").read_text())
        source = Path(cli.__file__).read_text()
        props = schema["properties"]
        keys = (list(props) + list(props["system"]["properties"])
                + list(props["time"]["properties"]))
        assert [k for k in keys if f'"{k}"' not in source] == []


SIMULATE_FREE = {"command": "simulate", "system": {"kind": "Free"}, "n": 2,
                 "time": {"t0": 0.0, "t1": 0.01, "h": 0.01}}


class TestUnwritableOutput:
    """An output that cannot be written is a config error, found before any computation."""

    @pytest.fixture
    def no_computation(self, monkeypatch):
        def computed(cfg, rng, out):
            raise AssertionError("computed before the output was checked")
        for name in cli.COMMANDS:
            monkeypatch.setitem(cli.COMMANDS, name, computed)

    @pytest.mark.parametrize("command", ["simulate", "verify-duality"])
    def test_out_under_a_regular_file(self, tmp_path, capsys, no_computation, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = write(tmp_path, "c.json", {**SIMULATE_FREE, "command": command})
        assert main([command, "--config", cfg, "--out", str(blocker / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: [Errno 20] Not a directory")

    @pytest.mark.parametrize("key", ["report_json", "trajectory_csv"])
    def test_output_in_a_missing_directory(self, tmp_path, capsys, no_computation, key):
        cfg = write(tmp_path, "c.json", {**SIMULATE_FREE, "output": {key: "missing/x"}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"config error: output 'missing/x' names no directory under {tmp_path}\n"

    @pytest.mark.parametrize("key", ["report_json", "trajectory_csv"])
    def test_failed_write_is_config_error(self, tmp_path, capsys, no_computation, key):
        # a name that is a directory cannot be written: found before the computation
        (tmp_path / "taken").mkdir()
        cfg = write(tmp_path, "c.json", {**SIMULATE_FREE, "output": {key: "taken"}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"config error: output 'taken' is a directory under {tmp_path}\n"

    @pytest.mark.parametrize("command, name", [("simulate", "simulate.json"),
                                               ("simulate", "trajectory.csv"),
                                               ("verify-duality", "verify-duality.json")])
    def test_default_name_that_is_a_directory(self, tmp_path, capsys, no_computation,
                                              command, name):
        # the names a run writes when the config sets none are checked too
        (tmp_path / name).mkdir()
        cfg = write(tmp_path, "c.json", {**SIMULATE_FREE, "command": command})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"config error: output {name!r} is a directory under {tmp_path}\n"

    def test_trajectory_default_only_for_simulate(self, tmp_path, capsys):
        # a command that writes no trajectory ignores a directory of that name
        (tmp_path / "trajectory.csv").mkdir()
        cfg = write(tmp_path, "c.json", {"command": "traces"})
        assert main(["traces", "--config", cfg, "--out", str(tmp_path)]) == 0


class TestSimulate:
    def test_free_trajectory_csv(self, tmp_path, rng):
        q = rng.normal(size=(2, 2))
        p = rng.normal(size=(2, 2))
        cfg = write(tmp_path, "sim.json", {
            "command": "simulate",
            "system": {"kind": "Free"},
            "g": 1.0,
            "initial": {"matrix": {"q": q.tolist(), "p": p.tolist()}},
            "time": {"t0": 0.0, "t1": 1.0, "h": 0.01},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t" and rows[0][1] == "re(x_1)"
        final = np.array([float(v) for v in rows[-1][1:]])
        expected = np.concatenate([(q + p).ravel(), p.ravel()])
        recovered = final[0::2] + 1j * final[1::2]
        assert np.abs(recovered - expected).max() < 1e-12

    def test_collision_exit_code(self, tmp_path):
        # colliding particle coordinates abort with the numerical exit code
        cfg = write(tmp_path, "sim.json", {
            "command": "simulate",
            "system": {"kind": "Free"},
            "g": 1.0,
            "initial": {"reduced": {"positions": [0.0, 1e-12],
                                    "momenta": [0.0, 0.0]}},
            "time": {"t0": 0.0, "t1": 1.0, "h": 0.01},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stage_overflow_exit_code(self, tmp_path):
        # a state that overflows inside one RK4 stage is a numerical error
        cfg = write(tmp_path, "sim.json", {
            "command": "simulate",
            "system": {"kind": "P_II", "theta": 1e200},
            "initial": {"matrix": {"q": [[0.0]], "p": [[0.0]]}},
            "time": {"t0": 0.0, "t1": 1.0, "h": 0.5},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_start_state_overflow_exit_code(self, tmp_path, capsys):
        # a start state beyond the overflow norm fails before the first step
        cfg = write(tmp_path, "sim.json", {
            "command": "simulate",
            "system": {"kind": "P_II"},
            "initial": {"matrix": {"q": [[1e80]], "p": [[0.0]]}},
            "time": {"t0": 0.0, "t1": 1.0, "h": 0.5},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "Overflow: state norm 1.000e+80" in capsys.readouterr().err

    @pytest.mark.parametrize("t1", [0.0, 1.0])
    def test_reversed_or_empty_span_is_config_error(self, tmp_path, capsys, t1):
        cfg = write(tmp_path, "sim.json", {
            "command": "simulate",
            "system": {"kind": "Free"},
            "initial": {"reduced": {"positions": [0.0, 1.0],
                                    "momenta": [0.0, 0.0]}},
            "time": {"t0": 1.0, "t1": t1, "h": 0.1},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestNumericalErrors:
    def test_every_package_error_of_a_computation_exits_3(self, tmp_path, capsys,
                                                          monkeypatch):
        def off_level_set(cfg, rng, out):
            raise NotOnLevelSet("moment map off by 1")
        monkeypatch.setitem(cli.COMMANDS, "mmkdv", off_level_set)
        cfg = write(tmp_path, "m.json", {"command": "mmkdv"})
        assert main(["mmkdv", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == \
            "numerical error in mmkdv: NotOnLevelSet: moment map off by 1\n"

    @pytest.mark.parametrize("command, config", [
        ("simulate", {"system": {"kind": "HarmOsc", "omega": 1e200}, "n": 2,
                      "time": {"t0": 0.0, "t1": 0.01, "h": 0.001}}),
        ("simulate", {"system": {"kind": "HarmOsc", "omega": 1e160},
                      "initial": {"matrix": {"q": [[0.0, 0.0], [0.0, 1.0]],
                                             "p": [[0.5, -1.0], [1.0, 0.2]]}},
                      "time": {"t0": 0.0, "t1": 0.01, "h": 0.001}}),
        ("confluence", {"g": 1e300}),
    ], ids=["omega_reduced", "omega_matrix", "confluence_g"])
    def test_float_overflow_exits_3(self, tmp_path, capsys, command, config):
        # omega ** 2 and g ** 2 of Python floats raise, where numpy gives inf
        cfg = write(tmp_path, "c.json", {"command": command, **config})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "OverflowError" in capsys.readouterr().err


class TestVerifyDuality:
    def test_seeded_p2_point(self, tmp_path):
        cfg = write(tmp_path, "dual.json", {
            "command": "verify-duality",
            "seed": 11,
            "system": {"kind": "P_II", "autonomous": True, "tau": 1.0,
                       "theta": [0.3, 0.1]},
            "n": 3, "g": 1.0,
        })
        assert main(["verify-duality", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify-duality.json").read_text())
        assert report["report"]["max_deviation"] < 1e-8
        assert report["report"]["negative_control"] > 1e-8
        assert report["report"]["pass"] is True

    def test_seeded_p2_poly_point(self, tmp_path):
        cfg = write(tmp_path, "dual.json", {
            "command": "verify-duality", "seed": 11,
            "system": {"kind": "P_II_poly", "theta": 0.3}, "n": 3, "g": 1.0, "t": 0.4,
        })
        assert main(["verify-duality", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify-duality.json").read_text())["report"]
        assert report["max_deviation"] < 1e-12
        assert report["negative_control"] > SPECTRAL_TOL and report["pass"] is True

    @pytest.mark.parametrize("n", [1, 3])
    def test_negative_control_reads_other_point(self, tmp_path, n):
        cfg = write(tmp_path, "dual.json", {
            "command": "verify-duality", "seed": 11,
            "system": {"kind": "P_II", "autonomous": True, "tau": 1.0},
            "n": n, "g": 1.0, "t": 0.2,
        })
        assert main(["verify-duality", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "verify-duality.json").read_text())["report"]
        rng = np.random.default_rng(11)
        pt = random_level_set_point(rng, n, 1.0, t=0.2)
        other = random_level_set_point(rng, n, 1.0, t=0.2)
        spec = cli.system_spec(json.loads(Path(cfg).read_text()))
        assert rep["negative_control"] == spectral_match(spec, pt, other)[1]

    def test_huge_time_fails_by_its_negative_control(self, tmp_path):
        # tau = 1e300 swamps L: every curve, the unrelated one too, matches
        # (both scaled power traces differ by a denormal, about 6.4e-314)
        cfg = write(tmp_path, "dual.json", {
            "command": "verify-duality",
            "system": {"kind": "P_II", "autonomous": True, "tau": 1e300},
        })
        assert main(["verify-duality", "--config", cfg, "--out", str(tmp_path)]) == 1
        rep = json.loads((tmp_path / "verify-duality.json").read_text())["report"]
        assert rep["max_deviation"] < SPECTRAL_TOL and rep["negative_control"] < SPECTRAL_TOL
        assert rep["pass"] is False


class TestSelfcheckDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        cfg = write(tmp_path, "self.json", {"command": "selfcheck", "seed": 7})
        for d in ("a", "b"):
            assert main(["selfcheck", "--config", cfg,
                         "--out", str(tmp_path / d)]) == 0
        payloads = []
        for d in ("a", "b"):
            data = json.loads((tmp_path / d / "selfcheck.json").read_text())
            del data["meta"]  # timestamp/runtime only
            payloads.append(json.dumps(data, sort_keys=True).encode())
        assert payloads[0] == payloads[1]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write(tmp_path, "self.json", {"command": "selfcheck", "seed": 7})
        assert main(["selfcheck", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "9"]) == 0
        data = json.loads((tmp_path / "selfcheck.json").read_text())
        assert data["report"]["seed"] == 9


class TestOtherCommands:
    def test_spectral_table(self, tmp_path):
        cfg = write(tmp_path, "s.json", {
            "command": "spectral", "seed": 2,
            "system": {"kind": "HarmOsc", "omega": 1.0},
            "initial": {"reduced": {"positions": [1.0], "momenta": [2.0]}},
            "g": 1.0182,
        })
        assert main(["spectral", "--config", cfg, "--out", str(tmp_path)]) == 0
        samples = json.loads((tmp_path / "spectral.json").read_text())["report"]["samples"]
        assert [complex(*s["lambda"]) for s in samples] == default_lambda_grid()
        assert all(s["coeffs"][0] == [1.0, 0.0] for s in samples)

    def test_spectral_overflow_exits_3_without_a_report(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.json", {
            "command": "spectral", "system": {"kind": "HarmOsc", "omega": 1e300}, "n": 2,
        })
        assert main(["spectral", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == ("numerical error in spectral: Overflow: "
                                           "char-poly coefficients are not finite\n")
        assert not (tmp_path / "spectral.json").exists()

    def test_spectral_p2_poly_is_p2_at_the_canonical_image(self, tmp_path):
        # on Q_DIAG q^2 is diagonal, so the image of momenta m is m - x^2 - T/2,
        # at theta - 1/2: the two tables agree entry for entry
        x, m, t, theta = [0.4, 1.3, -0.9], [0.7, -0.2, 1.1], 0.35, 0.3
        tables = []
        for name, kind, momenta, th in [
                ("poly", "P_II_poly", m, theta),
                ("p2", "P_II", [b - a * a - t / 2 for a, b in zip(x, m)], theta - 0.5)]:
            cfg = write(tmp_path, f"{name}.json", {
                "command": "spectral", "system": {"kind": kind, "theta": th}, "t": t,
                "initial": {"reduced": {"positions": x, "momenta": momenta}},
                "output": {"report_json": f"{name}_out.json"},
            })
            assert main(["spectral", "--config", cfg, "--out", str(tmp_path)]) == 0
            report = json.loads((tmp_path / f"{name}_out.json").read_text())["report"]
            tables.append([s["coeffs"] for s in report["samples"]])
        assert tables[0] == tables[1]

    def test_traces_command(self, tmp_path):
        cfg = write(tmp_path, "t.json", {
            "command": "traces", "seed": 5,
        })
        assert main(["traces", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "traces.json").read_text())
        assert rep["report"]["worked_values"]["l3"] == [18.0, 0.0]

    def test_mmkdv_command(self, tmp_path):
        cfg = write(tmp_path, "m.json", {"command": "mmkdv", "seed": 3})
        assert main(["mmkdv", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "mmkdv.json").read_text())
        calib = rep["report"]["calibration"]["calibrated"]
        assert calib["s_linear"] == 1.0 and calib["s_z"] == -1

    def test_confluence_command(self, tmp_path):
        cfg = write(tmp_path, "c.json", {
            "command": "confluence", "seed": 3, "conf_theta": 0.7,
            "n": 2, "g": 1.0,
        })
        assert main(["confluence", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "confluence.json").read_text())
        assert rep["report"]["breakdown"]["conf"]["pass"]
        assert rep["report"]["breakdown"]["conf1"]["pass"]

    def test_confluence_single_particle(self, tmp_path):
        # one particle has no interaction: neither map breaks down
        cfg = write(tmp_path, "c.json", {"command": "confluence", "seed": 3, "n": 1})
        assert main(["confluence", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "confluence.json").read_text())
        for kind in ("conf", "conf1"):
            assert rep["report"]["breakdown"][kind]["deviation"] < 1e-8

    def test_failed_mmkdv_calibration_exits_3_without_a_report(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr(mmkdv, "tw_residual", lambda *args: np.nan)
        cfg = str(CONFIG_DIR / "mmkdv.json")
        assert main(["mmkdv", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical error in mmkdv: CplabError: calibration not unique")
        assert not (tmp_path / "mmkdv.json").exists()

    def test_mmkdv_enforces_switch_sensitivity(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mmkdv, "switch_sensitivity", lambda sw: dict.fromkeys(
            ("s_cubic", "s_z", "s_linear", "s_comm"), 1e-4))
        cfg = write(tmp_path, "m.json", {"command": "mmkdv", "seed": 3})
        assert main(["mmkdv", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestReportEncoding:
    REPORT_TEXT = """\
  "report": {
    "arr": [
      [
        1.0,
        2.0
      ],
      [
        0.1,
        0.0
      ]
    ],
    "count": 7,
    "nan": NaN,
    "ok": true,
    "slice": "P_DIAG",
    "x": 0.1,
    "z": [
      1.5,
      -0.25
    ]
  }
}
"""

    def test_write_report_text(self, tmp_path):
        report = {"z": np.complex128(1.5 - 0.25j), "ok": np.bool_(True),
                  "count": np.int64(7), "arr": np.array([1 + 2j, 0.1]),
                  "nan": np.float64("nan"), "slice": Slice.P_DIAG, "x": np.float64(0.1)}
        text = cli.write_report(report, tmp_path, "r.json", 0.25).read_text()
        stamp = json.loads(text)["meta"]["timestamp"]
        head = ('{\n  "meta": {\n    "runtime_seconds": 0.25,\n'
                f'    "timestamp": "{stamp}"\n  }},\n')
        assert text == head + self.REPORT_TEXT

    def test_unknown_value_is_a_type_error(self, tmp_path):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            cli.write_report({"x": object()}, tmp_path, "r.json", 0.0)


class TestRegistryAgreement:
    """The traces/mmkdv/confluence reports are the selfcheck entries."""

    @pytest.mark.parametrize("command, config, check, point", [
        ("traces", {}, selfcheck.check_appendix_traces, {}),
        ("mmkdv", {}, selfcheck.check_mmkdv, {}),
        ("confluence", {"conf_theta": [0.5, 0.2], "n": 3, "g": 0.8},
         selfcheck.check_confluence, {"theta": 0.5 + 0.2j, "n": 3, "g": 0.8}),
    ], ids=["traces", "mmkdv", "confluence"])
    def test_cli_report_is_registry_entry(self, tmp_path, command, config,
                                          check, point):
        cfg = write(tmp_path, "c.json", {"command": command, "seed": 6, **config})
        code = main([command, "--config", cfg, "--out", str(tmp_path)])
        report = json.loads((tmp_path / f"{command}.json").read_text())["report"]
        entry = check(np.random.default_rng(6), **point)
        assert code == (0 if entry["pass"] else 1)
        assert report.pop("seed") == 6
        assert report == json.loads(json.dumps(entry))


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                             ids=lambda p: p.name)
    def test_exits_zero(self, tmp_path, path):
        command = json.loads(path.read_text())["command"]
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
