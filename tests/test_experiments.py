import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from star_isac.cli import main as cli_main
from star_isac.experiments import (FINAL_WINDOW, ConfigError, ScenarioConfig,
                                   episode_returns, episode_secrecy,
                                   parse_config, run_scenario, run_seed,
                                   seed_summary, sweep)

TINY = dict(L=3, N=4, n_x=2, T=4, episodes=2, seeds=(0,), batch_size=4,
            buffer_capacity=64, hidden_units=8)


def tiny_cfg(**kw):
    merged = dict(TINY)
    merged.update(kw)
    return ScenarioConfig(**merged)


class TestConfig:
    def test_defaults_are_desk_scale(self):
        cfg = ScenarioConfig()
        assert (cfg.L, cfg.N, cfg.M) == (4, 12, 2)
        assert cfg.T == 30 and cfg.episodes == 300
        assert cfg.seeds == (0, 1, 2)
        assert cfg.p0_watt == pytest.approx(10 ** (36 / 10) / 1000)
        assert cfg.noise_watt == pytest.approx(1e-12)
        assert cfg.kappa_linear == pytest.approx(10 ** 0.1)
        assert cfg.rician_linear == pytest.approx(10 ** 0.3)

    def test_parse_roundtrip(self):
        text = """
        # comment line
        L = 3
        N = 4          # trailing comment
        n_x = 2
        algorithm = ddpg
        seeds = 5,6
        p0_dbm = 30.0
        geometry.st = 100,110,1.5
        """
        cfg = parse_config(text)
        assert cfg.L == 3 and cfg.N == 4
        assert cfg.algorithm == "ddpg"
        assert cfg.seeds == (5, 6)
        assert cfg.geometry["st"] == (100.0, 110.0, 1.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("learning_rate = 0.1")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words")

    @pytest.mark.parametrize("bad", [
        dict(protocol="fdd"), dict(algorithm="ppo"), dict(baseline="ris"),
        dict(L=0), dict(seeds=()), dict(N=5, n_x=2),
        dict(protocol="ts", baseline="spliced"),
        dict(baseline="spliced", N=5, n_x=5),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            tiny_cfg(**bad)

    def test_scenario_id_stable_and_sensitive(self):
        a, b = tiny_cfg(), tiny_cfg()
        assert a.scenario_id() == b.scenario_id()
        assert a.scenario_id() != tiny_cfg(lr=2e-4).scenario_id()


class TestRunSeed:
    def test_row_count_and_schema(self):
        cfg = tiny_cfg()
        rows, episode_ms = run_seed(cfg, 0)
        assert len(rows) == cfg.episodes * cfg.T
        assert len(episode_ms) == cfg.episodes
        sid = cfg.scenario_id()
        for row in rows:
            assert row[0] == sid and row[1] == 0
            assert len(row) == 6 + cfg.M + 3
            assert row[9 + cfg.M - 1] in (0, 1) or True
        assert [r[3] for r in rows[:cfg.T]] == list(range(cfg.T))

    def test_deterministic_across_reruns(self):
        cfg = tiny_cfg()
        rows1, _ = run_seed(cfg, 0)
        rows2, _ = run_seed(cfg, 0)
        assert rows1 == rows2

    def test_seeds_differ(self):
        cfg = tiny_cfg()
        rows1, _ = run_seed(cfg, 0)
        rows2, _ = run_seed(cfg, 1)
        assert rows1 != rows2

    def test_summary_recomputable_from_rows(self):
        cfg = tiny_cfg(episodes=3)
        rows, _ = run_seed(cfg, 0)
        ret = episode_returns(rows)
        assert ret.size == 3
        manual = sum(r[4] for r in rows if r[2] == 1)
        assert ret[1] == pytest.approx(manual, rel=1e-12)
        sec = episode_secrecy(rows)
        manual_sec = np.mean([r[5] for r in rows if r[2] == 2])
        assert sec[2] == pytest.approx(manual_sec, rel=1e-12)
        s = seed_summary(rows)
        w = min(FINAL_WINDOW, 3)
        assert s["final_return"] == pytest.approx(np.mean(ret[-w:]), rel=1e-12)
        assert s["first_return"] == pytest.approx(np.mean(ret[:w]), rel=1e-12)


class TestRunScenario:
    def test_output_files_and_shapes(self, tmp_path):
        cfg = tiny_cfg(seeds=(0, 1))
        summary = run_scenario(cfg, tmp_path)
        for name in ("episodes.csv", "summary.csv", "timing.csv",
                     "config.echo"):
            assert (tmp_path / name).exists()
        with open(tmp_path / "episodes.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0][:6] == ["scenario_id", "seed", "episode", "step",
                               "reward", "sum_secrecy_rate"]
        assert len(rows) == 1 + 2 * cfg.episodes * cfg.T
        with open(tmp_path / "summary.csv") as f:
            srows = list(csv.reader(f))
        assert len(srows) == 1 + 2 + 1  # header, per-seed, mean
        assert srows[-1][1] == "mean"
        finals = [float(r[2]) for r in srows[1:3]]
        assert summary["final_return_mean"] == pytest.approx(np.mean(finals))

    def test_config_echo_roundtrips(self, tmp_path):
        cfg = tiny_cfg(algorithm="ddpg", p0_dbm=30.0)
        run_scenario(cfg, tmp_path)
        echoed = parse_config((tmp_path / "config.echo").read_text())
        assert echoed == cfg

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_cfg()
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        for name in ("episodes.csv", "summary.csv", "config.echo"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestSweep:
    def test_axis_values_and_files(self, tmp_path):
        cfg = tiny_cfg()
        results = sweep(cfg, "lr", ["1e-4", "1e-3"], tmp_path)
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "lr_1e-4" / "episodes.csv").exists()
        values = {r["value"] for r in results}
        assert values == {"1e-4", "1e-3"}
        means = [r for r in results if r["seed"] == "mean"]
        assert len(means) == 2

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(tiny_cfg(), "momentum", ["0.9"], tmp_path)

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(tiny_cfg(), "lr", [], tmp_path)


class TestCli:
    def write_cfg(self, tmp_path):
        lines = [f"{k} = {v}" for k, v in {
            "L": 3, "N": 4, "n_x": 2, "T": 4, "episodes": 2, "seeds": "0",
            "batch_size": 4, "buffer_capacity": 64, "hidden_units": 8,
        }.items()]
        p = tmp_path / "tiny.cfg"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_run_exit_zero(self, tmp_path, capsys):
        rc = cli_main(["run", "--config", self.write_cfg(tmp_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "episodes.csv").exists()
        assert "final return" in capsys.readouterr().out

    def test_sweep_exit_zero(self, tmp_path, capsys):
        rc = cli_main(["sweep", "--config", self.write_cfg(tmp_path),
                       "--axis", "algorithm", "--values", "ddpg,sac",
                       "--out", str(tmp_path / "sw")])
        assert rc == 0
        assert (tmp_path / "sw" / "sweep.csv").exists()

    def test_bad_config_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("bogus_key = 1\n")
        rc = cli_main(["run", "--config", str(p)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("n_x", "0"), ("T", "0"), ("episodes", "0"), ("gamma", "1.5"),
        ("batch_size", "0"), ("hidden_units", "0"), ("lr", "-1"),
        ("sensing_slots", "0"), ("buffer_capacity", "39"), ("soft_rate", "0"),
        ("freq_ghz", "0"), ("p0_dbm", "nan"), ("seeds", "-1"),
    ])
    def test_bad_value_exit_two_names_key(self, tmp_path, capsys, key, value):
        p = Path(self.write_cfg(tmp_path))
        p.write_text(p.read_text() + f"{key} = {value}\n")
        rc = cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"config error: {key}" in err

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        rc = cli_main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_invalid_override_combo_exit_two(self, tmp_path, capsys):
        # TS protocol with a reduced baseline is a config error
        rc = cli_main(["run", "--config", self.write_cfg(tmp_path),
                       "--protocol", "ts", "--baseline", "spliced",
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: baseline" in capsys.readouterr().err

    def test_bench_exit_zero(self, tmp_path, capsys):
        rc = cli_main(["bench", "--config", self.write_cfg(tmp_path),
                       "--episodes", "6"])
        assert rc == 0
        assert "ms/episode" in capsys.readouterr().out
