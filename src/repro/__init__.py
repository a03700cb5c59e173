"""repro — reproduction of "Small UAVs-supported Autonomous Generation
of Fine-grained 3D Indoor Radio Environmental Maps" (ICDCS 2022).

The package rebuilds the paper's full toolchain on a discrete-event
simulation of its hardware context:

* :mod:`repro.sim` — deterministic event kernel and seeded RNG streams;
* :mod:`repro.radio` — synthetic 3-D indoor RF environment (multi-wall
  propagation, correlated shadowing, AP population, self-interference);
* :mod:`repro.wifi` — channel-sweep scanner, ESP-01 AT device, driver;
* :mod:`repro.uwb` — Loco-Positioning anchors, TWR/TDoA ranging, EKF;
* :mod:`repro.uav` — Crazyflie vehicle, battery, commander, firmware;
* :mod:`repro.link` — Crazyradio, CRTP packets, bounded TX queue;
* :mod:`repro.station` — mission planning, control client, campaigns;
* :mod:`repro.core` — the REM toolchain: preprocessing, predictors,
  REM product, end-to-end pipeline;
* :mod:`repro.serve` — the job/artifact/serving API: JSON job specs,
  the content-addressed artifact store, the REM query service and its
  HTTP front end;
* :mod:`repro.analysis` — figure-by-figure reproduction of the
  evaluation.

Quickstart::

    from repro import RemJobSpec, run_job
    artifact = run_job(RemJobSpec())
    print(artifact.result.summary())
"""

from .core import (
    RadioEnvironmentMap,
    REMDataset,
    ToolchainResult,
    build_rem,
    preprocess,
)
from .radio import (
    DemoScenario,
    DemoScenarioConfig,
    available_scenarios,
    build_demo_scenario,
    build_scenario,
    register_scenario,
)
from .serve import (
    ArtifactStore,
    RemArtifact,
    RemJobSpec,
    RemService,
    create_server,
    run_job,
)
from .station import (
    CampaignConfig,
    CampaignResult,
    SampleLog,
    run_campaign,
    run_endurance_test,
)

__version__ = "1.1.0"

__all__ = [
    "ToolchainResult",
    "RadioEnvironmentMap",
    "REMDataset",
    "build_rem",
    "preprocess",
    "DemoScenario",
    "DemoScenarioConfig",
    "available_scenarios",
    "build_demo_scenario",
    "build_scenario",
    "register_scenario",
    "CampaignConfig",
    "CampaignResult",
    "SampleLog",
    "run_campaign",
    "run_endurance_test",
    "RemJobSpec",
    "run_job",
    "RemArtifact",
    "ArtifactStore",
    "RemService",
    "create_server",
    "__version__",
]
