import csv
import math
import re
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from star_isac import experiments
from star_isac.cli import build_parser, main as cli_main
from star_isac.env import EnvError, SecureIsacEnv
from star_isac.experiments import (_LINEAR_CHECKS, _NUMERIC_CHECKS, AGENTS,
                                   FINAL_WINDOW, KEYS, SWEEP_AXES,
                                   ConfigError, RunError, ScenarioConfig,
                                   build_agent, build_baseline,
                                   episode_columns, episode_returns,
                                   parse_config, run_scenario, run_seed,
                                   seed_summary, sweep)
from star_isac.ddpg import DdpgAgent
from star_isac.rl_core import WARMUP_BATCHES, Adam, Mlp, RlError
from star_isac.sac import ALPHA_LR, SacAgent

import learners

TINY = dict(L=3, N=4, n_x=2, T=4, episodes=2, seeds=(0,), batch_size=4,
            buffer_capacity=64, hidden_units=8)


def tiny_cfg(**kw):
    merged = dict(TINY)
    merged.update(kw)
    return ScenarioConfig(**merged)


def off_default_cfgs():
    """Configs that between them hold every field off its default. TS rules
    out the non-star baselines, so the second varies the baseline. Eve's
    x needs 10 significant digits, more than ``:g`` prints."""
    every = ScenarioConfig(
        L=3, N=4, M=1, protocol="ts", algorithm="ddpg", p0_dbm=30.0,
        noise_dbm=-80.0, r0=0.5, kappa_db=2.0, T=3, episodes=1,
        seeds=(3,), lr=3e-4, gamma=0.9, batch_size=4, buffer_capacity=64,
        soft_rate=0.01, hidden_units=8, hidden_layers=1, rician_db=5.0,
        freq_ghz=3.5, n_x=2, sensing_slots=10, sensing_tau=2.0e4,
        bs=(1.0, 0.0, 5.0), ris=(150.0, 150.25, 3.0),
        lus=((150.6, 150.8, 1.5),), eve=(154.5000001, 154.5, 1.5),
        st=(145.5, 146.0, 2.0))
    return [every, replace(every, protocol="es", baseline="conventional")]


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
        assert cfg.st == (100.0, 110.0, 1.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("learning_rate = 0.1")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words")

    @pytest.mark.parametrize("key, value", [
        ("N", "twelve"), ("seeds", "0,x"), ("geometry.eve", "a,b,c"),
        ("geometry.lus", "1,2,3;4,5,z"),
    ])
    def test_unparsable_value_names_line_key_and_value(self, key, value):
        text = f"# header\nL = 3\n{key} = {value}\n"
        with pytest.raises(ConfigError,
                           match=re.escape(f"line 3: {key} = {value!r}: ")):
            parse_config(text)

    @pytest.mark.parametrize("key, value, why", [
        ("geometry.eve", "150,150,3", "coincides with geometry.ris"),
        ("geometry.lus", "1,2,3;1,2,3", "coincides with geometry.lus[0]"),
        ("geometry.st", "1,2", "need three finite coordinates"),
        ("geometry.bs", "0,0,nan", "need three finite coordinates"),
        ("geometry.lus", "1,2,3", "geometry.lus = 1,2,3: need M = 2 user "
         "positions"),
    ])
    def test_bad_geometry_rejected_at_load(self, key, value, why):
        with pytest.raises(ConfigError, match=re.escape(why)):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("bad", [
        dict(protocol="fdd"), dict(algorithm="ppo"), dict(baseline="ris"),
        dict(L=0), dict(seeds=()), dict(N=5, n_x=2),
        dict(protocol="ts", baseline="spliced"),
        dict(baseline="spliced", N=5, n_x=5), dict(seeds=(0, 0)),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            tiny_cfg(**bad)

    @pytest.mark.parametrize("algorithm", ["ddpg", "sac"])
    def test_default_agent_buffer_holds_one_run(self, algorithm):
        # 300 episodes x 30 steps, not the configured 1,000,000
        cfg = ScenarioConfig(algorithm=algorithm)
        agent = build_agent(cfg, build_baseline(cfg, seed=1), seed=0)
        assert agent.buffer.capacity == 9_000

    @pytest.mark.parametrize("algorithm", list(AGENTS))
    def test_each_learner_setting_lands_where_it_is_used(self, algorithm):
        # every learner setting off its default, each read back where the
        # agent uses it
        cfg = tiny_cfg(algorithm=algorithm, episodes=20, lr=3e-4, gamma=0.5,
                       soft_rate=0.25, batch_size=5, buffer_capacity=50,
                       hidden_units=7, hidden_layers=3)
        agent = AGENTS[algorithm][1](cfg, 3, 2, seed=0)
        parts = vars(agent)
        rates = {name: opt.lr for name, opt in parts.items()
                 if isinstance(opt, Adam)}
        assert rates == {
            "ddpg": {"actor_opt": 3e-4, "critic_opt": 3e-4},
            "sac": {"policy_opt": 3e-4, "critic1_opt": 3e-4,
                    "critic2_opt": 3e-4, "alpha_opt": ALPHA_LR},
        }[algorithm]
        nets = {name: net for name, net in parts.items()
                if isinstance(net, Mlp)}
        assert all(net.sizes[1:-1] == [7, 7, 7] for net in nets.values())
        # below the episodes*T = 80 transitions of a run, so not capped
        assert agent.buffer.capacity == 50

        # gamma: a fresh agent's reward scale is 1
        batch = {"states": np.ones((2, 3)), "actions": np.zeros((2, 2)),
                 "rewards": np.array([1.0, -2.0]),
                 "next_states": np.array([[0.5, -1.0, 2.0], [1.0, 0.0, -0.5]]),
                 "dones": np.zeros(2)}
        s_next = batch["next_states"]
        if algorithm == "ddpg":
            x = np.concatenate([s_next, agent.target_actor(s_next)], axis=1)
            v = agent.target_critic(x)[:, 0]
            y = agent.target_value(batch)
        else:
            with learners.fixed_noise(agent, [[0.3, -0.2], [-1.0, 0.7]]):
                a_next, log_prob, *_ = agent._sample(s_next)
                y = agent.soft_q_target(batch)
            x = np.concatenate([s_next, a_next], axis=1)
            v = (np.minimum(agent.target_critic1(x), agent.target_critic2(x))
                 [:, 0] - agent.alpha * log_prob)
        assert np.allclose(y, batch["rewards"] + 0.5 * v, rtol=1e-12)

        # soft rate: each target net moves a quarter of the way
        targets = {name[len("target_"):]: net for name, net in nets.items()
                   if name.startswith("target_")}
        assert len(targets) == 2
        expect = {}
        for name, target in targets.items():
            nets[name].flat += 1.0
            expect[name] = 0.75 * target.flat + 0.25 * nets[name].flat
        agent.update_targets()
        for name, target in targets.items():
            assert np.allclose(target.flat, expect[name], atol=1e-14)

        # batch size: updates wait for WARMUP_BATCHES batches of 5, then
        # sample 5
        sizes = []
        sample = agent.buffer.sample
        agent.buffer.sample = lambda n, rng: sizes.append(n) or sample(n, rng)
        rng = np.random.default_rng(0)
        for _ in range(WARMUP_BATCHES * 5):
            agent.maybe_update()
            agent.observe(rng.standard_normal(3), rng.uniform(-1, 1, 2),
                          rng.normal(), rng.standard_normal(3), False)
        assert sizes == []
        agent.maybe_update()
        assert sizes == [5]

    def test_every_numeric_field_is_checked_at_load(self):
        # the channel, physics and env trust the config, so a field
        # without a check here is checked nowhere
        numeric = {f.name for f in fields(ScenarioConfig)
                   if type(f.default) in (int, float)}
        assert numeric == {key for key, _, _ in _NUMERIC_CHECKS}
        decibel = {f.name for f in fields(ScenarioConfig)
                   if f.name.endswith(("_db", "_dbm"))}
        assert decibel == {key for key, _, _, _ in _LINEAR_CHECKS}
        for key, view, _, _ in _LINEAR_CHECKS:
            assert isinstance(getattr(ScenarioConfig, view), property)

    def test_scenario_id_stable_and_sensitive(self):
        a, b = tiny_cfg(), tiny_cfg()
        assert a.scenario_id() == b.scenario_id()
        assert a.scenario_id() != tiny_cfg(lr=2e-4).scenario_id()

    def test_scenario_id_tells_close_points_apart(self):
        # ":g" prints both of these Eves as the default 154.5
        a, b = (ScenarioConfig(eve=(x, 154.5, 1.5))
                for x in (154.5000001, 154.5000002))
        assert a.scenario_id() != b.scenario_id()
        # the acceptance cache is keyed on the default layout's id
        assert ScenarioConfig().scenario_id() == "4bb9e498227d"

    def test_every_field_has_one_text_form(self):
        # a field without a KEYS entry is missing from files, config.echo
        # and scenario_id; a text form that loses bits gives two configs
        # one id
        assert sorted(name for name, _, _ in KEYS.values()) == \
            sorted(f.name for f in fields(ScenarioConfig))
        cfgs = off_default_cfgs()
        for f in fields(ScenarioConfig):
            assert any(getattr(c, f.name) != f.default for c in cfgs), f.name
        for cfg in cfgs:
            assert parse_config("".join(
                f"{key} = {text}\n"
                for key, text in cfg.as_flat_dict().items())) == cfg

    def test_equal_configs_hash_and_print_alike(self):
        # every field is immutable, so copies share nothing; lists given
        # for the tuple fields are stored as tuples
        tuples = ScenarioConfig(seeds=(0, 1), bs=(0.0, 0.0, 5.0))
        lists = ScenarioConfig(seeds=[0, 1], bs=[0, 0, 5],
                               ris=list(tuples.ris), eve=list(tuples.eve),
                               st=list(tuples.st),
                               lus=[list(p) for p in tuples.lus])
        for a, b in [(ScenarioConfig(p0_dbm=30.0), ScenarioConfig(p0_dbm=30)),
                     (tuples, lists)]:
            assert a == b and hash(a) == hash(b)
            assert a.scenario_id() == b.scenario_id()


class TestRunSeed:
    def test_row_count_and_schema(self):
        cfg = tiny_cfg()
        records, episode_ms = run_seed(cfg, 0)
        assert records.shape == (cfg.episodes, cfg.T,
                                 len(episode_columns(cfg.M)) - 4)
        assert records.dtype == np.float64
        assert len(episode_ms) == cfg.episodes
        assert set(np.unique(records[:, :, -2:])) <= {0.0, 1.0}

    def test_deterministic_across_reruns(self):
        cfg = tiny_cfg()
        records1, _ = run_seed(cfg, 0)
        records2, _ = run_seed(cfg, 0)
        assert np.array_equal(records1, records2)

    def test_seeds_differ(self):
        cfg = tiny_cfg()
        records1, _ = run_seed(cfg, 0)
        records2, _ = run_seed(cfg, 1)
        assert not np.array_equal(records1, records2)

    def test_summary_recomputable_from_rows(self, tmp_path):
        # every summary figure follows bit for bit from episodes.csv's
        # 17-digit rows, returns summed step by step and secrecy averaged
        # per episode. T > 8 sets the step-order sum apart from numpy's
        # pairwise one, and 5 episodes of 12 steps run past the
        # 40-transition warm-up.
        cfg = tiny_cfg(T=12, episodes=5, seeds=(0, 1))
        summary = run_scenario(cfg, tmp_path)
        assert [r["seed"] for r in summary] == [*cfg.seeds, "mean"]
        with open(tmp_path / "episodes.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert {r[0] for r in rows} == {cfg.scenario_id()}
        assert {flag for r in rows for flag in r[-2:]} <= {"0", "1"}
        for seed, seed_row in zip(cfg.seeds, summary):
            steps = [r for r in rows if r[1] == str(seed)]
            assert [(int(r[2]), int(r[3])) for r in steps] == \
                [divmod(i, cfg.T) for i in range(cfg.episodes * cfg.T)]
            records = np.array([[float(x) for x in r[4:]] for r in steps])
            records = records.reshape(cfg.episodes, cfg.T, -1)
            returns, secrecy = [], []
            for episode in records.tolist():
                total = 0.0
                for step in episode:
                    total += step[0]
                returns.append(total)
                secrecy.append(np.mean([step[1] for step in episode]))
            w = min(FINAL_WINDOW, cfg.episodes)
            assert seed_row == {"seed": seed, **seed_summary(records)}
            assert seed_summary(records) == {
                "final_return": float(np.mean(returns[-w:])),
                "first_return": float(np.mean(returns[:w])),
                "final_secrecy": float(np.mean(secrecy[-w:])),
            }
            # a window mean can round away a last-bit difference of its
            # episodes, so each episode is also summarised alone
            assert episode_returns(records).tolist() == returns
            for e in range(cfg.episodes):
                assert seed_summary(records[e:e + 1]) == {
                    "final_return": returns[e], "first_return": returns[e],
                    "final_secrecy": secrecy[e]}

    def test_each_episode_timed_from_its_own_reset(self, monkeypatch):
        # a fake clock that only episode 2's reset moves, by one second:
        # that second belongs to episode 2 and to no other
        now, reset, resets = [0.0], SecureIsacEnv.reset, []

        def slow_reset(env):
            if len(resets) == 2:
                now[0] += 1.0
            resets.append(env)
            return reset(env)

        monkeypatch.setattr(experiments, "time",
                            SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(SecureIsacEnv, "reset", slow_reset)
        _, episode_ms = run_seed(tiny_cfg(episodes=4), 0)
        assert episode_ms == [0.0, 0.0, 1000.0, 0.0]

    @pytest.mark.parametrize("algorithm", list(AGENTS))
    @pytest.mark.parametrize("wider", ["state", "action"])
    def test_train_rejects_agent_of_other_dimensions(self, algorithm, wider):
        # the first action stops a mismatched agent before it stores a
        # transition: its net rejects a wider state, the env a wider action
        error, message = {"state": (RlError, "input width"),
                          "action": (EnvError, "action shape")}[wider]
        env = build_baseline(tiny_cfg(), seed=0)
        module, agent_cls = AGENTS[algorithm]
        dims = {"state": env.state_dim, "action": env.action_dim}
        dims[wider] += 1
        agent = agent_cls(tiny_cfg(hidden_layers=1), dims["state"],
                          dims["action"], seed=0)
        with pytest.raises(error, match=message):
            next(module.train(env, agent, 1))
        assert len(agent.buffer) == 0


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
        assert [r["seed"] for r in summary] == [0, 1, "mean"]
        assert summary[-1]["final_return"] == pytest.approx(np.mean(finals))

    def test_a_new_statistic_is_one_entry(self, monkeypatch, tmp_path):
        # a fourth per-seed statistic, named in SUMMARY_COLUMNS and
        # computed in seed_summary, reaches every summary output
        summarise = experiments.seed_summary
        monkeypatch.setattr(experiments, "SUMMARY_COLUMNS",
                            (*experiments.SUMMARY_COLUMNS, "last_return"))
        monkeypatch.setattr(experiments, "seed_summary", lambda records: {
            **summarise(records),
            "last_return": float(episode_returns(records)[-1])})
        results = sweep(tiny_cfg(seeds=(0, 1)), "lr", ["1e-4"], tmp_path)
        with open(tmp_path / "lr_0.0001" / "summary.csv", newline="") as f:
            srows = list(csv.DictReader(f))
        with open(tmp_path / "sweep.csv", newline="") as f:
            swept = list(csv.DictReader(f))
        assert [r["seed"] for r in srows] == ["0", "1", "mean"]
        lasts = [float(r["last_return"]) for r in srows[:2]]
        assert [r["last_return"] for r in results] == \
            [*lasts, float(np.mean(lasts))]
        assert [r["last_return"] for r in swept] == \
            [r["last_return"] for r in srows] == \
            [format(x, ".17g") for x in (*lasts, np.mean(lasts))]

    def test_config_echo_roundtrips(self, tmp_path):
        cfgs = [tiny_cfg(algorithm="ddpg", p0_dbm=30.0), *off_default_cfgs()]
        for i, cfg in enumerate(cfgs):
            run_scenario(cfg, tmp_path / str(i))
            echoed = parse_config(
                (tmp_path / str(i) / "config.echo").read_text())
            assert echoed == cfg

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_cfg()
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        for name in ("episodes.csv", "summary.csv", "config.echo"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


def poison_step(monkeypatch, field, value, at):
    """Make the outcome of env step number ``at`` (counted from 0 over the
    whole run) carry ``value`` in ``field``."""
    step, calls = SecureIsacEnv.step, []

    def poisoned(env, action):
        out = step(env, action)
        if len(calls) == at:
            setattr(out, field, value)
        calls.append(out)
        return out

    monkeypatch.setattr(SecureIsacEnv, "step", poisoned)


def poison_loss(monkeypatch, cls, method, at, position=None):
    """Make call number ``at`` (from 0) of ``cls.method`` return NaN as
    its loss, or as entry ``position`` of the tuple it returns."""
    original, calls = getattr(cls, method), []

    def poisoned(agent, batch):
        value = original(agent, batch)
        if len(calls) == at:
            value = np.nan if position is None else tuple(
                np.nan if i == position else v for i, v in enumerate(value))
        calls.append(value)
        return value

    monkeypatch.setattr(cls, method, poisoned)


# with TINY's T = 4 and batch 4, updates begin once 40 transitions are
# stored: update k runs at the run's step 39 + k
LOSS_CASES = [
    ("sac", SacAgent, "critic_update", 0, 1, "critic 2 loss",
     "episode 9, step 3"),
    ("sac", SacAgent, "policy_update", 2, 0, "policy loss",
     "episode 10, step 1"),
    ("ddpg", DdpgAgent, "critic_update", 0, None, "critic loss",
     "episode 9, step 3"),
    ("ddpg", DdpgAgent, "actor_update", 5, None, "actor objective",
     "episode 11, step 0"),
]


@pytest.mark.parametrize("cls, names", [
    (DdpgAgent, ["critic loss", "actor objective"]),
    (SacAgent, ["critic 1 loss", "critic 2 loss", "policy loss"]),
])
def test_maybe_update_returns_its_losses(cls, names):
    # what run_seed checks after each step: nothing while the buffer
    # warms up, then every loss of the update, named, in checking order
    agent = learners.tiny_agent(cls)
    rng = np.random.default_rng(0)
    warmup = WARMUP_BATCHES * agent.cfg.batch_size
    for k in range(1, warmup + 4):
        agent.observe(rng.standard_normal(learners.STATE_DIM),
                      rng.uniform(-1, 1, learners.ACTION_DIM),
                      rng.normal(), rng.standard_normal(learners.STATE_DIM),
                      False)
        losses = agent.maybe_update()
        if k < warmup:
            assert losses == {}
        else:
            assert list(losses) == names
            assert all(math.isfinite(v) for v in losses.values())


class TestNonFinite:
    @pytest.mark.parametrize("algorithm", list(AGENTS))
    def test_step_record_is_checked_before_the_losses_it_poisons(
            self, monkeypatch, algorithm):
        # run step 42 comes after warm-up: its NaN reward enters the
        # reward scale, so the update after it has NaN losses too, but
        # the error names the reward, the first value that went bad
        cls = AGENTS[algorithm][1]
        update, returned = cls.maybe_update, []

        def recorded(agent):
            returned.append(update(agent))
            return returned[-1]

        monkeypatch.setattr(cls, "maybe_update", recorded)
        poison_step(monkeypatch, "reward", np.nan, at=42)
        with pytest.raises(RunError, match=r"^non-finite reward \(nan\) at "
                                           r"episode 10, step 2$"):
            run_seed(tiny_cfg(algorithm=algorithm, episodes=12), 0)
        assert len(returned) == 43
        assert not all(math.isfinite(v) for v in returned[-1].values())

    @pytest.mark.parametrize("algorithm, cls, method, at, position, name, "
                             "where", LOSS_CASES)
    def test_loss_stops_run_naming_loss_episode_and_step(
            self, monkeypatch, algorithm, cls, method, at, position, name,
            where):
        poison_loss(monkeypatch, cls, method, at, position)
        with pytest.raises(RunError, match=rf"^non-finite {name} \(nan\) "
                                           rf"at {where}$"):
            run_seed(tiny_cfg(algorithm=algorithm, episodes=12), 0)

    def test_action_stops_run_naming_episode_step_and_entry(
            self, monkeypatch):
        # T = 4: step 6 of the run is episode 1, step 2
        step, calls = SecureIsacEnv.step, []

        def poisoned(env, action):
            if len(calls) == 6:
                action = np.array(action)
                action[1] = -np.inf
            calls.append(action)
            return step(env, action)

        monkeypatch.setattr(SecureIsacEnv, "step", poisoned)
        with pytest.raises(RunError, match=r"^non-finite action \(-inf\) at "
                                           r"episode 1, step 2: entry 1$"):
            run_seed(tiny_cfg(), 0)

    @pytest.mark.parametrize("field, value, name", [
        ("reward", np.nan, "reward (nan)"),
        ("sum_secrecy_rate", np.inf, "sum_secrecy_rate (inf)"),
        ("lu_rates", np.array([0.5, np.nan]), "lu_rate_1 (nan)"),
        ("echo_snr", np.nan, "echo_snr (nan)"),
    ])
    def test_run_stops_naming_quantity_episode_and_step(
            self, monkeypatch, field, value, name):
        # T = 4: step 6 of the run is episode 1, step 2
        poison_step(monkeypatch, field, value, at=6)
        with pytest.raises(RunError, match=rf"non-finite {re.escape(name)} "
                                           r"at episode 1, step 2"):
            run_seed(tiny_cfg(), 0)


class TestSweep:
    def test_axis_values_and_files(self, tmp_path):
        cfg = tiny_cfg()
        results = sweep(cfg, "lr", ["1e-4", "1e-3"], tmp_path)
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "lr_0.0001" / "episodes.csv").exists()
        values = {r["value"] for r in results}
        assert values == {1e-4, 1e-3}
        means = [r for r in results if r["seed"] == "mean"]
        assert len(means) == 2

    def test_names_come_from_the_cast_value(self, tmp_path):
        # as `--values "1e-4, 2e-4"` splits: the second value has a space
        sweep(tiny_cfg(), "lr", ["1e-4", " 2e-4"], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) \
            == ["lr_0.0001", "lr_0.0002"]
        with open(tmp_path / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert {r["value"] for r in rows} == {"0.0001", "0.0002"}

    def test_unknown_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(tiny_cfg(), "momentum", ["0.9"], tmp_path)

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sweep(tiny_cfg(), "lr", [], tmp_path)

    def test_value_repeated_after_cast_rejected(self, tmp_path):
        out = tmp_path / "sw"
        with pytest.raises(ConfigError, match=r"^sweep axis lr = '0.0001': "
                                              r"0.0001 appears twice$"):
            sweep(tiny_cfg(), "lr", ["1e-4", "1e-3", "0.0001"], out)
        assert not out.exists()


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
                       "--seeds", "0,1", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "episodes.csv").exists()
        # the printed mean and spread are those of summary.csv's rows
        with open(tmp_path / "out" / "summary.csv", newline="") as f:
            *per_seed, mean = csv.DictReader(f)
        finals = [float(r["final_return"]) for r in per_seed]
        assert capsys.readouterr().out == (
            f"scenario {mean['scenario_id']}: "
            f"final return {float(mean['final_return']):.4g} "
            f"± {np.std(finals):.4g}, "
            f"secrecy {float(mean['final_secrecy']):.4g} bps/Hz\n")

    def test_sweep_exit_zero(self, tmp_path, capsys):
        rc = cli_main(["sweep", "--config", self.write_cfg(tmp_path),
                       "--axis", "algorithm", "--values", "ddpg,sac",
                       "--out", str(tmp_path / "sw")])
        assert rc == 0
        assert (tmp_path / "sw" / "sweep.csv").exists()

    def test_sweep_strips_each_value(self, tmp_path, capsys):
        rc = cli_main(["sweep", "--config", self.write_cfg(tmp_path),
                       "--axis", "algorithm", "--values", "ddpg, sac",
                       "--out", str(tmp_path / "sw")])
        assert rc == 0, capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "sw").iterdir()
                      if p.is_dir()) == ["algorithm_ddpg", "algorithm_sac"]

    @pytest.mark.parametrize("values, why", [
        ("abc", "invalid literal"), ("4,5", "n_x must divide N"),
    ])
    def test_sweep_bad_value_exit_two_before_training(self, tmp_path, capsys,
                                                      values, why):
        out = tmp_path / "sw"
        rc = cli_main(["sweep", "--config", self.write_cfg(tmp_path),
                       "--axis", "N", "--values", values, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        bad = values.split(",")[-1]
        assert f"config error: sweep axis N = {bad!r}: " in err and why in err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["8,8", "4,04"])
    def test_sweep_repeated_value_exit_two_before_training(
            self, tmp_path, capsys, values):
        out = tmp_path / "sw"
        rc = cli_main(["sweep", "--config", self.write_cfg(tmp_path),
                       "--axis", "N", "--values", values, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        bad = values.split(",")[-1]
        assert (f"config error: sweep axis N = {bad!r}: {int(bad)} appears "
                "twice") in err
        assert not out.exists()

    def test_non_finite_reward_exit_three(self, tmp_path, capsys, monkeypatch):
        poison_step(monkeypatch, "reward", np.nan, at=0)
        rc = cli_main(["run", "--config", self.write_cfg(tmp_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        assert ("runtime error: non-finite reward (nan) at episode 0, step 0"
                in capsys.readouterr().err)

    def test_non_finite_loss_exit_three(self, tmp_path, capsys, monkeypatch):
        poison_loss(monkeypatch, SacAgent, "policy_update", 0, 0)
        rc = cli_main(["run", "--config", self.write_cfg(tmp_path),
                       "--episodes", "12", "--out", str(tmp_path / "out")])
        assert rc == 3
        assert ("runtime error: non-finite policy loss (nan) at episode 9, "
                "step 3" in capsys.readouterr().err)

    def test_bad_seed_entry_exit_two_names_option_and_place(self, tmp_path,
                                                           capsys):
        rc = cli_main(["run", "--config", self.write_cfg(tmp_path),
                       "--seeds", "0,x", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "config error: seeds = '0,x': entry 2, 'x', is not an " \
            "integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds, why", [
        ("", "at least one seed required"), ("0,0", "a seed repeats"),
    ])
    def test_seeds_option_checked_at_load(self, tmp_path, capsys, seeds,
                                          why):
        rc = cli_main(["run", "--config", self.write_cfg(tmp_path),
                       "--seeds", seeds, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "config error: seeds = " in err and why in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_action_exit_three(self, tmp_path, capsys, monkeypatch):
        sample = SacAgent.sample_action

        def nan_action(agent, state):
            action = sample(agent, state)
            action[3] = np.nan
            return action

        monkeypatch.setattr(SacAgent, "sample_action", nan_action)
        rc = cli_main(["run", "--config", self.write_cfg(tmp_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 3
        assert ("runtime error: non-finite action (nan) at episode 0, "
                "step 0: entry 3" in capsys.readouterr().err)

    def test_coincident_geometry_exit_two_names_keys(self, tmp_path, capsys):
        # the default surface sits at 150,150,3
        p = Path(self.write_cfg(tmp_path))
        p.write_text(p.read_text() + "geometry.eve = 150,150,3\n")
        rc = cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert ("config error: geometry.eve = 150,150,3 coincides with "
                "geometry.ris") in err

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
        ("rician_db", "4000"), ("sensing_tau", "1e300"),
        ("noise_dbm", "-4000"), ("p0_dbm", "-4000"), ("kappa_db", "4000"),
        ("seeds", "0,0"), ("algorithm", "ppo"), ("seeds", ""),
    ])
    def test_bad_value_exit_two_names_key(self, tmp_path, capsys, key, value):
        p = Path(self.write_cfg(tmp_path))
        p.write_text(p.read_text() + f"{key} = {value}\n")
        rc = cli_main(["run", "--config", str(p), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"config error: {key}" in err

    @pytest.mark.parametrize("option, value, key", [
        ("--algo", "ppo", "algorithm"), ("--protocol", "fdd", "protocol"),
        ("--baseline", "ris", "baseline"), ("--episodes", "x", "episodes"),
    ])
    def test_bad_option_exit_two_names_key(self, tmp_path, capsys, option,
                                           value, key):
        out = tmp_path / "out"
        rc = cli_main(["run", "--config", self.write_cfg(tmp_path), option,
                       value, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert f"config error: {key} = {value!r}: " in err
        assert not out.exists()

    def test_axis_choices_are_the_sweep_axes(self):
        [commands] = [a for a in build_parser()._actions
                      if a.dest == "command"]
        sweep_choices = {a.dest: a.choices
                         for a in commands.choices["sweep"]._actions}
        assert sweep_choices["axis"] == list(SWEEP_AXES)

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
