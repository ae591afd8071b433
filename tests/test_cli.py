import csv
import json
from pathlib import Path

import numpy as np
import pytest

import cplab.mmkdv as mmkdv
from cplab import selfcheck
from cplab.cli import main


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

    @pytest.mark.parametrize("key", ["level_set", "reduce"])
    def test_unread_tolerances_rejected(self, tmp_path, key):
        cfg = write(tmp_path, "c.json", {
            "command": "verify-duality",
            "system": {"kind": "P_II", "autonomous": True, "tau": 1.0},
            "tolerances": {key: 1e-30},
        })
        assert main(["verify-duality", "--config", cfg, "--out", str(tmp_path)]) == 2


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
        assert report["report"]["pass"] is True


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
            "lambda_grid": {"values": [1.0, [0.0, 2.0]]},
        })
        assert main(["spectral", "--config", cfg, "--out", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "spectral.json").read_text())
        assert len(rep["report"]["samples"]) == 2
        coeffs = rep["report"]["samples"][0]["coeffs"]
        assert coeffs[0] == [1.0, 0.0]

    def test_spectral_without_lax_pair_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.json", {
            "command": "spectral",
            "system": {"kind": "P_II_poly"},
            "initial": {"reduced": {"positions": [1.0], "momenta": [2.0]}},
        })
        assert main(["spectral", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_traces_command(self, tmp_path):
        cfg = write(tmp_path, "t.json", {
            "command": "traces", "seed": 5,
            "trace": {"n_max": 4, "trials": 5, "max_even_l": 6},
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
            "command": "confluence", "seed": 3,
            "eps_sweep": [0.1, 0.05, 0.025], "conf_theta": 0.7,
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

    def test_mmkdv_enforces_switch_sensitivity(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mmkdv, "switch_sensitivity", lambda sw: dict.fromkeys(
            ("s_cubic", "s_z", "s_linear", "s_comm"), 1e-4))
        cfg = write(tmp_path, "m.json", {"command": "mmkdv", "seed": 3})
        assert main(["mmkdv", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestRegistryAgreement:
    """The traces/mmkdv/confluence reports are the selfcheck entries."""

    @pytest.mark.parametrize("command, config, check, sizes", [
        ("traces", {"trace": {"n_max": 4, "trials": 5, "max_even_l": 6}},
         selfcheck.check_appendix_traces, {"n_max": 4, "trials": 5, "max_l": 6}),
        ("mmkdv", {}, selfcheck.check_mmkdv, {}),
        ("confluence", {"eps_sweep": [0.1, 0.05], "conf_theta": [0.5, 0.2],
                        "n": 3, "g": 0.8},
         selfcheck.check_confluence,
         {"eps": [0.1, 0.05], "theta": 0.5 + 0.2j, "n": 3, "g": 0.8}),
    ], ids=["traces", "mmkdv", "confluence"])
    def test_cli_report_is_registry_entry(self, tmp_path, command, config,
                                          check, sizes):
        cfg = write(tmp_path, "c.json", {"command": command, "seed": 6, **config})
        code = main([command, "--config", cfg, "--out", str(tmp_path)])
        report = json.loads((tmp_path / f"{command}.json").read_text())["report"]
        entry = check(np.random.default_rng(6), **sizes)
        assert code == (0 if entry["pass"] else 1)
        assert report.pop("seed") == 6
        assert report == json.loads(json.dumps(entry))


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")),
                             ids=lambda p: p.name)
    def test_exits_zero(self, tmp_path, path):
        command = json.loads(path.read_text())["command"]
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
