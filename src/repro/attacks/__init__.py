"""Attack campaign framework: the Figure 7 experiment."""

from .campaign import (
    AttackOutcome,
    CampaignConfig,
    CampaignError,
    CampaignSummary,
    TAMPER_VALUES,
    WorkloadResult,
    attack_rng,
    attack_seed,
    clean_run,
    run_attack,
    run_workload_campaign,
)

__all__ = [
    "AttackOutcome",
    "CampaignConfig",
    "CampaignError",
    "CampaignSummary",
    "TAMPER_VALUES",
    "WorkloadResult",
    "attack_rng",
    "attack_seed",
    "clean_run",
    "run_attack",
    "run_workload_campaign",
]
