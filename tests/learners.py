"""Tiny agents and random replay batches shared by the DDPG and SAC tests.

A tiny agent has 3 state and 2 action dimensions and is built from a
``ScenarioConfig``, as a run builds its agent: it runs the config's
defaults, except two hidden layers of 8 units, batches of 4 and a
256-transition buffer, and takes only settings a config accepts.
``fixed_noise`` fixes the noise an agent draws from its ``rng``.
"""
from contextlib import contextmanager

import numpy as np

from star_isac.experiments import ScenarioConfig

STATE_DIM, ACTION_DIM = 3, 2
TINY = dict(hidden_units=8, batch_size=4, buffer_capacity=256)


def tiny_agent(agent_cls, seed=0, **settings):
    """An agent_cls of STATE_DIM x ACTION_DIM; settings are config keys
    that override TINY and the defaults."""
    cfg = ScenarioConfig(**{**TINY, **settings})
    return agent_cls(cfg, STATE_DIM, ACTION_DIM, seed)


def random_batch(rng, n=4, dones=None):
    """n random transitions of a tiny agent's dimensions; dones default
    to 0."""
    return {
        "states": rng.standard_normal((n, STATE_DIM)),
        "actions": rng.uniform(-1, 1, (n, ACTION_DIM)),
        "rewards": rng.standard_normal(n),
        "next_states": rng.standard_normal((n, STATE_DIM)),
        "dones": np.zeros(n) if dones is None else np.asarray(dones, float),
    }


class _FixedNoise:
    """Stands in for an agent's generator: each standard-normal draw is
    eps, and must ask for eps's shape."""

    def __init__(self, eps):
        self.eps = eps

    def standard_normal(self, shape):
        assert shape == self.eps.shape, (shape, self.eps.shape)
        return self.eps


@contextmanager
def fixed_noise(agent, eps):
    """Within the block every standard-normal draw of ``agent.rng`` is
    eps, so SAC's reparameterized draws are fixed; the agent's own
    generator is back when the block ends."""
    rng, agent.rng = agent.rng, _FixedNoise(np.asarray(eps, float))
    try:
        yield agent
    finally:
        agent.rng = rng
