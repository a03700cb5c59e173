"""RemJobSpec: JSON round-trips, digests, config adapters."""

import json

import pytest

from repro.core.predictors import KnnRegressor
from repro.core.preprocessing import PreprocessConfig
from repro.link.crazyradio import RadioConfig
from repro.radio.scenario_cache import ScenarioCache
from repro.serve import RemJobSpec
from repro.station import ActiveSamplingConfig, CampaignConfig
from repro.station.client import ClientConfig
from repro.uav.firmware import FirmwareConfig


class TestRoundTrip:
    def test_json_round_trip_is_identity(self):
        spec = RemJobSpec(
            scenario="office",
            seed=9,
            acquisition="active",
            active={"budget_waypoints": 24, "seed_waypoints": 8},
            tune=False,
            predictor="idw",
            hyperparameters={"power": 2.0},
            resolution_m=0.5,
        )
        again = RemJobSpec.from_json(spec.to_json())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_generated_scenario_names_are_legal(self):
        spec = RemJobSpec(scenario="generated:room-grid?floors=2&seed=5")
        assert RemJobSpec.from_json(spec.to_json()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown job-spec field"):
            RemJobSpec.from_dict({"scenrio": "condo"})

    def test_non_object_json_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            RemJobSpec.from_json("[1, 2]")


class TestDigest:
    def test_equal_specs_equal_digests(self):
        a = RemJobSpec(seed=5, tune=False)
        b = RemJobSpec(seed=5, tune=False)
        assert a.digest() == b.digest()

    def test_seed_changes_digest(self):
        assert RemJobSpec(seed=5).digest() != RemJobSpec(seed=6).digest()

    def test_active_none_and_empty_mean_the_same_job(self):
        # None, {}, and the defaults spelled out all run the identical
        # campaign, so they must share one content address.
        a = RemJobSpec(acquisition="active", active=None)
        b = RemJobSpec(acquisition="active", active={})
        c = RemJobSpec(acquisition="active", active={"batch_size": 6})
        assert a.digest() == b.digest() == c.digest()

    def test_numeric_spellings_normalize(self):
        # JSON clients routinely send 48.0 for 48; same job, same digest.
        a = RemJobSpec(acquisition="active", active={"budget_waypoints": 48})
        b = RemJobSpec(
            acquisition="active", active={"budget_waypoints": 48.0}
        )
        assert a.digest() == b.digest()
        assert RemJobSpec(seed=7).digest() == RemJobSpec(seed=7.0).digest()

    def test_partial_active_dict_canonicalizes(self):
        # Spelling out a default must not change the digest.
        a = RemJobSpec(acquisition="active", active={"budget_waypoints": 72})
        b = RemJobSpec(
            acquisition="active",
            active={"budget_waypoints": 72, "batch_size": 6},
        )
        assert a.digest() == b.digest()
        assert a.active == b.active

    def test_canonical_json_is_sorted_and_minimal(self):
        data = json.loads(RemJobSpec().canonical_json())
        assert list(data) == sorted(data)


class TestValidation:
    def test_bad_acquisition(self):
        with pytest.raises(ValueError, match="acquisition"):
            RemJobSpec(acquisition="psychic")

    def test_unknown_scenario_rejected_at_spec_time(self):
        # A typo'd scenario must be a spec error at the API boundary,
        # not a traceback from the middle of a job.
        with pytest.raises(ValueError, match="unknown scenario"):
            RemJobSpec(scenario="nope")

    def test_bad_predictor(self):
        with pytest.raises(ValueError, match="predictor"):
            RemJobSpec(predictor="oracle")

    def test_tune_requires_plain_knn(self):
        with pytest.raises(ValueError, match="tune"):
            RemJobSpec(predictor="idw", tune=True)
        with pytest.raises(ValueError, match="tune"):
            RemJobSpec(hyperparameters={"n_neighbors": 3}, tune=True)

    def test_active_dict_requires_active_acquisition(self):
        with pytest.raises(ValueError, match="acquisition='active'"):
            RemJobSpec(active={"budget_waypoints": 10})

    def test_unknown_active_key_rejected(self):
        with pytest.raises(ValueError, match="active-sampling job field"):
            RemJobSpec(acquisition="active", active={"warp_drive": 1})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lattice_nx", 0),
            ("lattice_nx", -2),
            ("lattice_ny", 0),
            ("lattice_nz", 0),
            ("lattice_margin_m", -0.1),
            ("flight_leg_s", 0),
            ("scan_window_s", -1),
            ("refit_every_scans", 0),
            ("holdout_fraction", 1.5),
            ("holdout_fraction", -0.1),
        ],
    )
    @pytest.mark.parametrize("acquisition", ["active", "fleet"])
    def test_active_fields_validated_at_spec_time(self, acquisition, field, value):
        # A JobSetSpec expands its grid through RemJobSpec, so a bad
        # tunable must fail here, not inside each cell's campaign.
        with pytest.raises(ValueError, match=field.split("_")[0]):
            RemJobSpec(acquisition=acquisition, active={field: value})

    def test_non_json_hyperparameter_rejected(self):
        with pytest.raises(ValueError, match="JSON-serializable"):
            RemJobSpec(
                predictor="knn",
                tune=False,
                hyperparameters={"weights": object()},
            )

    @pytest.mark.parametrize(
        "predictor, hyperparameters",
        [
            ("idw", {"power": -1}),
            ("knn", {"n_neighbors": 0}),
            ("idw", {"bogus": 1}),
            ("knn", {"n_neighbors": "three"}),
            ("kriging", {"n_neighbors": 1}),
        ],
    )
    def test_invalid_hyperparameters_rejected_at_spec_time(
        self, predictor, hyperparameters
    ):
        with pytest.raises(ValueError, match="invalid hyperparameters"):
            RemJobSpec(predictor=predictor, tune=False, hyperparameters=hyperparameters)

    def test_invalid_base_hyperparameters_reject_the_job_set(self):
        from repro.serve import JobSetSpec

        with pytest.raises(ValueError, match="invalid hyperparameters"):
            JobSetSpec(
                predictors=("idw",),
                base={"tune": False, "hyperparameters": {"power": -1}},
            )


class TestConfigAdapters:
    def test_toolchain_config_round_trip(self):
        spec = RemJobSpec(
            scenario="warehouse",
            seed=17,
            acquisition="active",
            active={"budget_waypoints": 30},
            tune=False,
            min_samples_per_mac=4,
            resolution_m=0.5,
        )
        config = spec.toolchain_config()
        assert config.campaign.scenario == "warehouse"
        assert config.campaign.seed == 17
        assert config.campaign.acquisition == "active"
        assert config.campaign.active.budget_waypoints == 30
        assert config.preprocess.min_samples_per_mac == 4
        assert config.rem_resolution_m == 0.5
        assert not config.tune_hyperparameters
        assert config.campaign.to_job_fields() == {
            "scenario": "warehouse",
            "seed": 17,
            "acquisition": "active",
            "active": spec.active,
            "fleet": None,
        }

    def test_default_toolchain_config_is_representable(self):
        config = RemJobSpec().toolchain_config()
        assert config.campaign == CampaignConfig()
        assert config.preprocess == PreprocessConfig()
        assert ScenarioCache._campaign_key(config.campaign) is not None

    def test_custom_firmware_is_not_representable(self):
        config = CampaignConfig(firmware=FirmwareConfig.stock_2021_06())
        with pytest.raises(ValueError, match="firmware"):
            config.to_job_fields()
        assert ScenarioCache._campaign_key(config) is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("radio", RadioConfig(duty_cycle=0.5)),
            ("client", ClientConfig(setpoint_period_s=0.1)),
        ],
    )
    def test_custom_hardware_is_not_representable(self, field, value):
        config = CampaignConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            config.to_job_fields()
        assert ScenarioCache._campaign_key(config) is None

    def test_predictor_factory_is_not_representable(self):
        config = CampaignConfig(
            acquisition="active",
            active=ActiveSamplingConfig(predictor_factory=KnnRegressor),
        )
        with pytest.raises(ValueError, match="predictor_factory"):
            config.to_job_fields()
        assert ScenarioCache._campaign_key(config) is None

    def test_preprocess_knobs_travel_through(self):
        spec = RemJobSpec(min_samples_per_mac=3, split_seed=99)
        assert spec.toolchain_config().preprocess == PreprocessConfig(
            min_samples_per_mac=3, split_seed=99
        )

    def test_build_predictor_defaults_to_pipeline_choice(self):
        assert RemJobSpec().build_predictor() is None

    def test_build_predictor_applies_hyperparameters(self):
        spec = RemJobSpec(
            predictor="knn", tune=False, hyperparameters={"n_neighbors": 7}
        )
        predictor = spec.build_predictor()
        assert isinstance(predictor, KnnRegressor)
        assert predictor.n_neighbors == 7


class TestFleetFields:
    def test_round_trip_preserves_fleet_and_digest(self):
        spec = RemJobSpec(
            acquisition="fleet",
            fleet={"n_drones": 3, "min_separation_m": 1.0},
            active={"budget_waypoints": 24},
            tune=False,
        )
        again = RemJobSpec.from_json(spec.to_json())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_fleet_none_and_empty_mean_the_same_job(self):
        # None, {}, and the defaults spelled out all fly the identical
        # fleet, so they must share one content address.
        a = RemJobSpec(acquisition="fleet", fleet=None)
        b = RemJobSpec(acquisition="fleet", fleet={})
        c = RemJobSpec(acquisition="fleet", fleet={"n_drones": 2})
        assert a.digest() == b.digest() == c.digest()
        # Canonicalization spells every fleet field out.
        assert a.fleet == {
            "n_drones": 2,
            "min_separation_m": 0.5,
            "charging_slots": 1,
            "charge_time_s": 0.0,
            "batteries": None,
        }
        # ... and the shared active tunables too.
        assert a.active is not None

    def test_fleet_numeric_spellings_normalize(self):
        a = RemJobSpec(acquisition="fleet", fleet={"n_drones": 4})
        b = RemJobSpec(acquisition="fleet", fleet={"n_drones": 4.0})
        assert a.digest() == b.digest()

    def test_default_batteries_spelled_out_canonicalize(self):
        # One default pack per drone is the same fleet as no batteries.
        pack = {
            "capacity_mah": 250.0,
            "hover_current_ma": 2080.0,
            "translate_extra_ma": 260.0,
            "erratic_reserve_fraction": 0.04,
        }
        a = RemJobSpec(acquisition="fleet", fleet={"batteries": [pack, pack]})
        b = RemJobSpec(acquisition="fleet", fleet=None)
        assert a.digest() == b.digest()

    def test_custom_batteries_change_the_digest(self):
        weak = {"capacity_mah": 120.0}
        a = RemJobSpec(
            acquisition="fleet", fleet={"batteries": [weak, weak]}
        )
        b = RemJobSpec(acquisition="fleet", fleet=None)
        assert a.digest() != b.digest()
        assert RemJobSpec.from_json(a.to_json()) == a

    def test_fleet_dict_requires_fleet_acquisition(self):
        with pytest.raises(ValueError, match="acquisition='fleet'"):
            RemJobSpec(acquisition="active", fleet={"n_drones": 2})
        with pytest.raises(ValueError, match="acquisition='fleet'"):
            RemJobSpec(fleet={"n_drones": 2})

    def test_active_dict_allowed_with_fleet_acquisition(self):
        spec = RemJobSpec(
            acquisition="fleet", active={"budget_waypoints": 18}
        )
        assert spec.active["budget_waypoints"] == 18

    def test_unknown_fleet_key_rejected(self):
        with pytest.raises(ValueError, match="fleet job field"):
            RemJobSpec(acquisition="fleet", fleet={"warp_drive": 1})

    def test_fleet_toolchain_config_round_trip(self):
        spec = RemJobSpec(
            acquisition="fleet",
            fleet={"n_drones": 3},
            active={"budget_waypoints": 30},
            tune=False,
        )
        config = spec.toolchain_config()
        assert config.campaign.acquisition == "fleet"
        assert config.campaign.fleet.n_drones == 3
        assert config.campaign.active.budget_waypoints == 30
        fields = config.campaign.to_job_fields()
        assert (fields["active"], fields["fleet"]) == (spec.active, spec.fleet)
