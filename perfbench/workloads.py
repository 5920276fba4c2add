"""The benchmark's workloads: one study configuration each.

Every workload is a closed batch run: one study per interpreter, driven
through the public library API, with simulated time generating the
traffic (there is no arrival process).  The study seeds come from the
benchmark's ``--seed`` argument (:func:`study_seeds`); the library only
ever sees the resulting :class:`~repro.core.config.StudyConfig` and
:class:`~repro.countermeasures.campaign.CampaignConfig`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    """One named study shape."""

    name: str
    why: str
    scale: float
    milking_days: int
    campaign_days: int
    #: Run the table/figure experiments and score them against the paper.
    experiments: bool = True
    #: Run the campaign journaled, checkpointed, sharded and instrumented
    #: (see :func:`campaign_config`); otherwise the plain serial path.
    durable: bool = False
    #: Focal networks of the campaign (empty: every built network).
    networks: Tuple[str, ...] = ()
    shards: int = 1

    def study_kwargs(self, seed: int) -> Dict[str, Any]:
        return {"seed": seed, "scale": self.scale,
                "milking_days": self.milking_days,
                "campaign_days": self.campaign_days}

    def describe(self) -> Dict[str, Any]:
        return {"scale": self.scale, "milking_days": self.milking_days,
                "campaign_days": self.campaign_days,
                "experiments": self.experiments, "durable": self.durable,
                "networks": list(self.networks), "shards": self.shards}


def campaign_config(workload: Workload):
    """The campaign configuration handed to ``run_campaign`` (``None``
    means the runner's default for ``campaign_days``)."""
    if not workload.durable and not workload.networks:
        return None
    from repro.countermeasures.campaign import CampaignConfig

    overrides: Dict[str, Any] = {"networks": workload.networks}
    if workload.durable:
        overrides.update(outgoing_per_hour=0.0, hublaa_outage=None,
                         shards=workload.shards)
    return CampaignConfig.compressed(workload.campaign_days, **overrides)


#: Worlds one run measures.  A study's cost depends on its world (the
#: `build` set-up of seed 8 takes 1.4 times that of seed 9), so a run
#: rotates over several and weighs each world equally.
SEEDS_PER_RUN = 3


def study_seeds(seed: int) -> Tuple[int, ...]:
    """The run's study seeds: ``seed`` and ones drawn from it."""
    rng = random.Random(seed)
    return (seed,) + tuple(rng.randrange(1 << 31)
                           for _ in range(SEEDS_PER_RUN - 1))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="campaign",
            why=("full pipeline whose countermeasure campaign (delivery "
                 "waves, limiter, detection) dominates; build is small"),
            scale=0.01, milking_days=30, campaign_days=10),
        Workload(
            name="build",
            why=("large membership build (join, OAuth grant, token issue) "
                 "dominates; short two-network campaign"),
            scale=0.014, milking_days=3, campaign_days=20,
            networks=("fb-autolikers.com", "autolike.vn")),
        Workload(
            name="durable",
            why=("journaled, checkpointed, 2-shard, instrumented campaign: "
                 "the only path through WAL, recovery, sharding, sanitizer"),
            scale=0.007, milking_days=6, campaign_days=10,
            experiments=False, durable=True,
            networks=("fb-autolikers.com", "autolike.vn"), shards=2),
    )
}


def get(name: str, scale: Optional[float] = None) -> Workload:
    """The named workload, optionally at another scale (self-test)."""
    workload = WORKLOADS[name]
    if scale is None:
        return workload
    return Workload(**{**workload.__dict__, "scale": scale})
