"""STAR-RIS aided ISAC secure-communication simulator and RL optimizers."""

from .channel import (EpisodeChannels, FadingParams, SystemGeometry,
                      generate_episode_channels, path_loss_los,
                      path_loss_nlos, steering_bs, steering_ris)
from .env import SecureIsacEnv
from .experiments import ScenarioConfig, run_scenario, sweep
from .physics import (SensingParams, StepOutcome, echo_snr_lower_bound,
                      effective_channels, evaluate, optimal_filter,
                      project_power, reward, score, secrecy_rate, sinrs)
from .star_ris import (SURFACES, decode, es_coefficients, es_power_split,
                       ts_periods)

__all__ = [
    "EpisodeChannels", "FadingParams", "SystemGeometry",
    "generate_episode_channels", "path_loss_los", "path_loss_nlos",
    "steering_bs", "steering_ris",
    "SecureIsacEnv",
    "ScenarioConfig", "run_scenario", "sweep",
    "SensingParams", "StepOutcome",
    "echo_snr_lower_bound", "effective_channels", "evaluate",
    "optimal_filter", "project_power", "reward", "score", "secrecy_rate",
    "sinrs",
    "SURFACES", "decode", "es_coefficients", "es_power_split", "ts_periods",
]

__version__ = "0.1.0"
