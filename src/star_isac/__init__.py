"""STAR-RIS aided ISAC secure-communication simulator and RL optimizers."""

from .channel import (ChannelRealization, FadingParams, SystemGeometry,
                      generate_episode_channels, path_loss_los,
                      path_loss_nlos, rician_channel, steering_bs,
                      steering_ris)
from .env import SecureIsacEnv
from .experiments import ScenarioConfig, run_scenario, sweep, measure_runtime
from .physics import (SensingParams, StepOutcome, TransmitDesign,
                      echo_snr_lower_bound, effective_channels, evaluate,
                      optimal_filter, project_power, reward, secrecy_rate,
                      sinrs)
from .star_ris import (StarRisEsConfig, StarRisTsConfig, es_coefficients,
                       project_raw_action_es, project_raw_action_ts,
                       ts_coefficients, ts_periods)

__all__ = [
    "ChannelRealization", "FadingParams", "SystemGeometry",
    "generate_episode_channels", "path_loss_los", "path_loss_nlos",
    "rician_channel", "steering_bs", "steering_ris",
    "SecureIsacEnv",
    "ScenarioConfig", "run_scenario", "sweep", "measure_runtime",
    "SensingParams", "StepOutcome", "TransmitDesign",
    "echo_snr_lower_bound", "effective_channels", "evaluate",
    "optimal_filter", "project_power", "reward", "secrecy_rate", "sinrs",
    "StarRisEsConfig", "StarRisTsConfig", "es_coefficients",
    "project_raw_action_es", "project_raw_action_ts", "ts_coefficients",
    "ts_periods",
]

__version__ = "0.1.0"
