import copy
import dataclasses
import pathlib
import re

import pytest
import yaml

from odchain import scenario as scenario_mod
from odchain.departure import ScheduleParams
from odchain.errors import ConfigurationError
from odchain.network import Link, TimeGrid, Zone, build_toy_network
from odchain.scenario import (
    EstimationConfig,
    LegDef,
    NoiseFractions,
    PerturbationSpec,
    ScenarioConfig,
    load_scenario,
    packaged_scenario_path,
    parse_minutes,
    scenario_from_mapping,
)

INLINE_CORRIDOR = {
    "name": "corridor",
    "seed": 7,
    "time_grid": {"start": 0, "interval_minutes": 15, "n_intervals": 12},
    "network": {
        "zones": [{"id": "a"}, {"id": "b", "kind": "work"}],
        "links": [
            {"label": "1", "from": "a", "to": "b", "free_flow_time": 8.0, "capacity": 2000},
        ],
        "paths": {"a-b": ["1a"], "b-a": ["1b"]},
        "detectors": ["1a", "1b"],
    },
    "legs": [
        {"name": "out", "total": 900, "od_split": {"a-b": 1.0},
         "schedule": {"preferred_arrival": "00:45", "logit_scale": 0.05}},
        {"name": "back", "total": 900, "od_split": {"b-a": 1.0},
         "schedule": {"preferred_arrival": 150, "logit_scale": 0.05}, "feeds": ["out"]},
    ],
    "perturbation": {"mode": "uniform_scale", "scale": 0.2},
    "estimation": {"cutoff": 90, "prediction_intervals": 2},
    "models": ["seed", "kf", "pkf", "spkf"],
}


class TestParseMinutes:
    def test_clock_string(self):
        assert parse_minutes("08:00") == 480.0
        assert parse_minutes("18:30") == 1110.0

    def test_plain_number(self):
        assert parse_minutes(37) == 37.0
        assert parse_minutes(12.5) == 12.5

    def test_rejects_garbage(self):
        for bad in ("8", "a:b", "10:75", None, [1], True, float("nan"), float("inf"),
                    "-1:30", "-0:30", "1_0:00", "08:-0"):
            with pytest.raises(ConfigurationError):
                parse_minutes(bad)

    def test_names_the_key_path(self):
        with pytest.raises(ConfigurationError, match=r"^estimation\.cutoff: cannot parse time"):
            parse_minutes("noon", "estimation", "cutoff")


class TestSpecs:
    def test_perturbation_mode_checked(self):
        with pytest.raises(ConfigurationError):
            PerturbationSpec(mode="quadratic")

    def test_perturbation_scale_floor(self):
        with pytest.raises(ConfigurationError):
            PerturbationSpec(scale=-1.0)

    def test_perturbation_noise_range(self):
        with pytest.raises(ConfigurationError):
            PerturbationSpec(mode="scale_plus_noise", noise=1.0)

    @pytest.mark.parametrize("mode, key, value", [
        ("uniform_scale", "noise", 0.15), ("none", "noise", 0.15), ("none", "scale", 0.3),
    ])
    def test_perturbation_value_its_mode_ignores(self, mode, key, value):
        """A value the historical day would be drawn without is an error."""
        message = rf"^perturbation\.{key} {value} has no effect under mode '{mode}'"
        with pytest.raises(ConfigurationError, match=message):
            PerturbationSpec(mode=mode, **{key: value})

    def test_noise_fractions_positive(self):
        with pytest.raises(ConfigurationError):
            NoiseFractions(process=0.0)

    def test_prediction_intervals_floor(self):
        with pytest.raises(ConfigurationError):
            EstimationConfig(cutoff_minute=720.0, prediction_intervals=0)


class TestPackagedToy:
    def test_loads_clean(self, toy_cfg):
        assert toy_cfg.name == "toy"
        assert toy_cfg.seed == 20260825
        assert toy_cfg.grid.n_intervals == 96
        assert toy_cfg.cutoff_index == 48  # noon on a 15-minute grid
        assert toy_cfg.models == ("seed", "kf", "pkf", "spkf")
        assert toy_cfg.validate() == []

    def test_chain_shape(self, toy_cfg):
        chain = toy_cfg.chain()
        assert set(chain.roots()) == {"hw_direct", "hw_leisure"}
        assert chain.feeds["work_home"] == ("hw_direct",)
        assert chain.feeds["leisure_home"] == ("work_leisure",)

    def test_commute_capacity_override_applied(self, toy_cfg):
        assert toy_cfg.network.links["4a"].capacity == 11000.0
        assert toy_cfg.network.links["7a"].capacity == 4000.0


class TestValidate:
    def test_unknown_model_flagged(self, toy_doc):
        toy_doc["models"] = ["seed", "warp"]
        cfg = scenario_from_mapping(toy_doc)
        assert any("warp" in p for p in cfg.validate())

    def test_cutoff_outside_grid_flagged(self, toy_doc):
        toy_doc["estimation"]["cutoff"] = "25:00"
        cfg = scenario_from_mapping(toy_doc)
        assert any("cutoff" in p for p in cfg.validate())

    def test_cutoff_at_grid_end_flagged(self, toy_doc):
        toy_doc["estimation"]["cutoff"] = "24:00"
        cfg = scenario_from_mapping(toy_doc)
        assert cfg.cutoff_index == cfg.grid.n_intervals
        assert "estimation cutoff leaves no prediction interval" in cfg.validate()

    def test_missing_path_flagged(self, toy_doc):
        toy_doc["legs"][0]["od_split"] = {"1-5": 1.0}  # no such path in the toy net
        cfg = scenario_from_mapping(toy_doc)
        assert any("no path" in p for p in cfg.validate())

    def test_unchainable_arrivals_flagged(self, toy_doc):
        # drop zone 4's return ODs: hw_direct arrivals at 4 become orphans
        toy_doc["legs"][2]["od_split"] = {"3-1": 0.5, "3-2": 0.5}
        cfg = scenario_from_mapping(toy_doc)
        assert any("no outgoing OD" in p for p in cfg.validate())

    def test_unknown_feeder_flagged(self, toy_doc):
        toy_doc["legs"][2]["feeds"] = ["ghost"]
        cfg = scenario_from_mapping(toy_doc)
        assert any("ghost" in p for p in cfg.validate())

    def test_feeder_listed_twice_flagged(self, toy_doc):
        toy_doc["legs"][2]["feeds"] = ["hw_direct", "hw_direct"]
        cfg = scenario_from_mapping(toy_doc)
        assert cfg.validate() == ["leg 'work_home' lists its feeder 'hw_direct' twice"]

    def test_no_legs_flagged(self, toy_cfg):
        """The parser rejects a document without legs; a config built
        without them fails validation, and so generation, the same way."""
        assert dataclasses.replace(toy_cfg, legs=()).validate() == [
            "scenario defines no demand legs"]

    def test_duplicate_leg_flagged(self, toy_doc):
        toy_doc["legs"].append(copy.deepcopy(toy_doc["legs"][0]))
        cfg = scenario_from_mapping(toy_doc)
        assert any("duplicate" in p for p in cfg.validate())

    def test_negative_seeds_flagged(self, toy_doc):
        toy_doc["seed"] = -1
        toy_doc["perturbation"]["seed"] = -5
        assert scenario_from_mapping(toy_doc).validate() == [
            "seed must be >= 0, not -1", "perturbation.seed must be >= 0, not -5",
        ]

    def test_preferred_arrival_outside_the_day_flagged(self, toy_doc):
        """A typo such as "80:00" for "08:00" is not a preferred arrival in
        the day; the problem names the key path of each such leg."""
        toy_doc["legs"][0]["schedule"]["preferred_arrival"] = "80:00"
        toy_doc["legs"][3]["schedule"]["preferred_arrival"] = -0.5
        assert scenario_from_mapping(toy_doc).validate() == [
            "legs[0].schedule.preferred_arrival: 4800 minutes lies outside the day (00:00 to 24:00)",
            "legs[3].schedule.preferred_arrival: -0.5 minutes lies outside the day (00:00 to 24:00)",
        ]

    @pytest.mark.parametrize("arrival", ["00:00", "24:00", 0, 1440])
    def test_preferred_arrival_at_the_ends_of_the_day_validates(self, toy_doc, arrival):
        toy_doc["legs"][0]["schedule"]["preferred_arrival"] = arrival
        assert scenario_from_mapping(toy_doc).validate() == []


class TestMappingErrors:
    def test_split_must_sum_to_one(self, toy_doc):
        toy_doc["legs"][0]["od_split"]["1-3"] = 0.5
        with pytest.raises(ConfigurationError):
            scenario_from_mapping(toy_doc)

    def test_no_legs(self, toy_doc):
        toy_doc["legs"] = []
        with pytest.raises(ConfigurationError):
            scenario_from_mapping(toy_doc)

    def test_unknown_schedule_key(self, toy_doc):
        toy_doc["legs"][0]["schedule"]["lunch_break"] = 30
        with pytest.raises(ConfigurationError):
            scenario_from_mapping(toy_doc)

    def test_unknown_noise_key(self, toy_doc):
        toy_doc["noise"]["wobble"] = 0.1
        with pytest.raises(ConfigurationError):
            scenario_from_mapping(toy_doc)

    def test_unknown_preset(self, toy_doc):
        toy_doc["network"] = {"preset": "manhattan"}
        with pytest.raises(ConfigurationError):
            scenario_from_mapping(toy_doc)

    def test_non_mapping_document(self):
        with pytest.raises(ConfigurationError):
            scenario_from_mapping(["not", "a", "mapping"])

    @pytest.mark.parametrize(
        "path, typo, meant",
        [
            ((), "time_gird", "time_grid"),
            ((), "model", "models"),
            (("legs", 2), "fed_by", "feeds"),
            (("estimation",), "cutof", "cutoff"),
            (("estimation",), "refresh_assignmnet", "refresh_assignment"),
            (("perturbation",), "scael", "scale"),
            (("network",), "overides", "overrides"),
        ],
    )
    def test_misspelled_key_names_nearest(self, toy_doc, path, typo, meant):
        """A misspelled key is rejected at every level, not dropped for a
        default, and the error names the key that was meant."""
        level = toy_doc
        for step in path:
            level = level[step]
        level[typo] = level.pop(meant, True)
        with pytest.raises(ConfigurationError, match=f"unknown key '{typo}'.*did you mean '{meant}'"):
            scenario_from_mapping(toy_doc)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: doc.update(time_grid=15), "time_grid must be a mapping"),
            (lambda doc: doc["legs"][0].pop("name"), r"legs\[0\] lacks the required key 'name'"),
            (lambda doc: doc["legs"].__setitem__(1, "hw_leisure"), r"legs\[1\] must be a mapping"),
            (lambda doc: doc["legs"].__setitem__(1, None), r"legs\[1\] lacks the required key 'name'"),
            (lambda doc: doc["network"].update(overrides=[1]), "network.overrides must be a mapping"),
            (lambda doc: doc.update(network={"zones": [{"kind": "work"}]}),
             r"network.zones\[0\] lacks the required key 'id'"),
            (lambda doc: doc.update(network={"zones": [None]}),
             r"network.zones\[0\] lacks the required key 'id'"),
            (lambda doc: doc.update(network={"links": [{"label": "1", "from": "a", "too": "b"}]}),
             "did you mean 'to'"),
            (lambda doc: doc["network"].update(zones=[]), "unknown key 'preset' in network"),
        ],
        ids=["grid-not-mapping", "leg-without-name", "leg-not-mapping", "leg-empty",
             "overrides-not-mapping", "zone-without-id", "zone-empty", "link-key-typo",
             "preset-beside-inline"],
    )
    def test_malformed_level_is_configuration_error(self, toy_doc, mutate, message):
        mutate(toy_doc)
        with pytest.raises(ConfigurationError, match=message):
            scenario_from_mapping(toy_doc)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: doc["legs"][0].update(total=[1]), r"legs\[0\]\.total must be a number"),
            (lambda doc: doc["time_grid"].update(n_intervals=None),
             r"time_grid\.n_intervals must be an integer"),
            (lambda doc: doc.update(legs=5), "legs must be a list"),
            (lambda doc: doc.update(network=dict(INLINE_CORRIDOR["network"], paths=[["1a"]])),
             "network.paths must be a mapping"),
            (lambda doc: doc.update(name=None), "name must be a string, not None"),
            (lambda doc: doc.update(description=["a", "b"]),
             r"description must be a string, not \['a', 'b'\]"),
            (lambda doc: doc["legs"][4].update(name=None),
             r"legs\[4\]\.name must be a string, not None"),
            (lambda doc: doc["legs"][2].update(feeds=[1.5]),
             r"legs\[2\]\.feeds\[0\] must be a string, not 1\.5"),
            (lambda doc: doc["perturbation"].update(mode=None),
             r"perturbation\.mode must be a string, not None"),
            (lambda doc: doc.update(models=["kf", {"pkf": 1}]),
             r"models\[1\] must be a string, not \{'pkf': 1\}"),
            (lambda doc: doc.update(network=_inline(zones=[{"id": None}, {"id": "b"}])),
             r"network\.zones\[0\]\.id must be a string, not None"),
            (lambda doc: doc.update(network=_inline(zones=[{"id": "a"}, {"id": 2.5}])),
             r"network\.zones\[1\]\.id must be a string, not 2\.5"),
            (lambda doc: doc.update(network=_inline(links=[{"label": None, "from": "a", "to": "b"}])),
             r"network\.links\[0\]\.label must be a string, not None"),
            (lambda doc: doc.update(network=_inline(links=[{"label": "1", "from": True, "to": "b"}])),
             r"network\.links\[0\]\.from must be a string, not True"),
            (lambda doc: doc.update(network=_inline(links=[{"label": "1", "from": "a", "to": ["b"]}])),
             r"network\.links\[0\]\.to must be a string, not \['b'\]"),
            (lambda doc: doc.update(network=_inline(paths={"a-b": ["1a", None]})),
             r"network\.paths\.a-b\[1\] must be a string, not None"),
            (lambda doc: doc.update(network=_inline(detectors=[False])),
             r"network\.detectors\[0\] must be a string, not False"),
        ],
        ids=["total-not-a-number", "n-intervals-null", "legs-not-a-list", "paths-as-list",
             "name-null", "description-list", "leg-name-null", "feed-float", "mode-null",
             "model-mapping", "zone-id-null", "zone-id-float", "link-label-null",
             "link-from-boolean", "link-to-list", "path-link-null", "detector-boolean"],
    )
    def test_wrongly_typed_value_names_its_key(self, toy_doc, mutate, message):
        mutate(toy_doc)
        with pytest.raises(ConfigurationError, match=message):
            scenario_from_mapping(toy_doc)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: doc["time_grid"].update(interval_minutes=7.5),
             r"time_grid\.interval_minutes must be an integer"),
            (lambda doc: doc["legs"][2].update(feeds="hw_direct"), r"legs\[2\]\.feeds must be a list"),
            (lambda doc: doc["legs"][0]["od_split"].update({"1-3": "most"}),
             r"legs\[0\]\.od_split\.1-3 must be a number"),
            (lambda doc: doc["network"]["overrides"].update(capacity=[1]), "network.overrides"),
        ],
        ids=["fractional-interval", "feeds-as-string", "split-not-a-number", "override-as-list"],
    )
    def test_mistyped_nested_value_names_its_key(self, toy_doc, mutate, message):
        mutate(toy_doc)
        with pytest.raises(ConfigurationError, match=message):
            scenario_from_mapping(toy_doc)

    def test_grid_start_is_a_whole_minute(self, toy_doc):
        """A fractional start is an error naming its key, not truncated; a
        clock time still reads as its minute of the day."""
        toy_doc["time_grid"]["start"] = "07:30"
        assert scenario_from_mapping(toy_doc).grid.start == 450
        toy_doc["time_grid"]["start"] = 7.5
        with pytest.raises(ConfigurationError, match=r"time_grid\.start must be an integer, not 7\.5"):
            scenario_from_mapping(toy_doc)

    @pytest.mark.parametrize("key", ["uniform_redistribution", "refresh_assignment"])
    @pytest.mark.parametrize("value", ["false", "off", 1], ids=["quoted-false", "off", "one"])
    def test_switch_must_be_a_yaml_boolean(self, toy_doc, key, value):
        toy_doc["estimation"][key] = value
        with pytest.raises(ConfigurationError, match=f"estimation.{key} must be true or false"):
            scenario_from_mapping(toy_doc)

    @pytest.mark.parametrize("value", [True, False])
    def test_switch_reads_yaml_booleans(self, toy_doc, value):
        toy_doc["estimation"].update(uniform_redistribution=value, refresh_assignment=value)
        estimation = scenario_from_mapping(toy_doc).estimation
        assert estimation.uniform_redistribution is value
        assert estimation.refresh_assignment is value

    def test_bad_od_key(self, toy_doc):
        toy_doc["legs"][0]["od_split"] = {"1_3": 1.0}
        with pytest.raises(ConfigurationError):
            scenario_from_mapping(toy_doc)

    @pytest.mark.parametrize(
        "inline, path, text, message",
        [
            (False, ("legs", 0, "total"), ".nan", r"legs\[0\]\.total must be finite, not nan"),
            (True, ("network", "links", 0, "capacity"), ".nan",
             r"network\.links\[0\]\.capacity must be finite, not nan"),
            (True, ("network", "links", 0, "free_flow_time"), ".inf",
             r"network\.links\[0\]\.free_flow_time must be finite, not inf"),
            (False, ("noise", "process"), ".nan", r"noise\.process must be finite, not nan"),
            (False, ("perturbation", "scale"), ".nan",
             r"perturbation\.scale must be finite, not nan"),
            (False, ("legs", 0, "schedule", "logit_scale"), ".nan",
             r"legs\[0\]\.schedule\.logit_scale must be finite, not nan"),
            (False, ("estimation", "prediction_intervals"), "yes",
             r"estimation\.prediction_intervals must be an integer, not True"),
            (False, ("legs", 0, "od_split", "1-3"), "true",
             r"legs\[0\]\.od_split\.1-3 must be a number, not True"),
            (False, ("seed",), "true", r"seed must be an integer, not True"),
            (False, ("legs", 0, "schedule", "preferred_arrival"), "-.inf",
             r"legs\[0\]\.schedule\.preferred_arrival: cannot parse time -inf"),
            (False, ("time_grid", "start"), "false", r"time_grid\.start: cannot parse time False"),
            (False, ("network", "overrides", "capacity", "4"), ".nan",
             r"network\.overrides\.capacity\.4 must be finite, not nan"),
        ],
        ids=["total-nan", "capacity-nan", "free-flow-time-inf", "noise-nan", "scale-nan",
             "logit-scale-nan", "prediction-intervals-yes", "split-true", "seed-true",
             "arrival-minus-inf", "grid-start-false", "toy-capacity-nan"],
    )
    def test_boolean_or_non_finite_number_names_its_key(self, toy_doc, inline, path, text,
                                                        message):
        """A YAML boolean is an int to Python and ``.nan`` a float, yet
        neither is a scenario number: each is an error naming its key path."""
        doc = copy.deepcopy(INLINE_CORRIDOR) if inline else toy_doc
        *parents, last = path
        level = doc
        for key in parents:
            level = level[key]
        level[last] = yaml.safe_load(text)
        with pytest.raises(ConfigurationError, match=message):
            scenario_from_mapping(doc)


class TestDefaults:
    """A key left out takes its dataclass field's default; only the cutoff
    has a default of the document's own."""

    MINIMAL = {"legs": [{"name": "only", "od_split": {"1-3": 1.0}}]}

    def test_minimal_document_is_the_dataclass_defaults(self):
        doc = dict(copy.deepcopy(self.MINIMAL), name="minimal")
        assert scenario_from_mapping(doc) == ScenarioConfig(
            legs=(LegDef(name="only", od_split={("1", "3"): 1.0}),),
            estimation=EstimationConfig(cutoff_minute=ScenarioConfig.grid.end),
            name="minimal",
        )

    def test_leg_without_split_is_an_empty_split(self):
        doc = {"legs": [{"name": "only"}]}
        with pytest.raises(ConfigurationError, match="leg 'only': empty OD split"):
            scenario_from_mapping(doc)

    def test_every_level_left_out(self):
        cfg = scenario_from_mapping(copy.deepcopy(self.MINIMAL))
        assert cfg.grid == TimeGrid()
        assert cfg.perturbation == PerturbationSpec()
        assert cfg.noise == NoiseFractions()
        assert cfg.estimation == EstimationConfig(cutoff_minute=cfg.grid.end)
        assert cfg.network == build_toy_network()
        defaults = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
        for key in ("models", "seed", "measurement_noise_fraction", "description"):
            assert getattr(cfg, key) == defaults[key], key
        assert cfg.name == "scenario"
        (leg,) = cfg.legs
        assert (leg.total, leg.schedule, leg.feeds) == (0.0, ScheduleParams(), ())

    def test_empty_levels_and_models(self):
        doc = dict(copy.deepcopy(self.MINIMAL), time_grid={}, perturbation={}, noise={},
                   estimation={}, network={"overrides": {}}, models=[])
        assert scenario_from_mapping(doc) == scenario_from_mapping(copy.deepcopy(self.MINIMAL))

    def test_inline_zone_and_link_without_parameters(self):
        doc = copy.deepcopy(INLINE_CORRIDOR)
        doc["network"]["zones"][0] = {"id": "a"}
        doc["network"]["links"][0] = {"label": "1", "from": "a", "to": "b"}
        network = scenario_from_mapping(doc).network
        assert network.zones["a"] == Zone("a")
        assert network.links == {"1a": Link("1a", "1", "a", "b"), "1b": Link("1b", "1", "b", "a")}


class TestInertKeys:
    """``noise.process`` and ``estimation.refresh_assignment`` are read and
    set nothing: the reader logs one warning naming each that a document
    sets away from its default, and none otherwise."""

    @pytest.mark.parametrize("mutate, key", [
        (lambda doc: doc["estimation"].update(refresh_assignment=True),
         "estimation.refresh_assignment"),
        (lambda doc: doc.setdefault("noise", {}).update(process=0.3), "noise.process"),
    ], ids=["refresh", "process"])
    def test_a_key_set_warns_once(self, toy_doc, caplog, mutate, key):
        mutate(toy_doc)
        with caplog.at_level("WARNING", logger="odchain"):
            scenario_from_mapping(toy_doc)
        (record,) = caplog.records
        assert record.levelname == "WARNING" and key in record.getMessage()

    def test_defaults_warn_not(self, toy_doc, caplog):
        with caplog.at_level("WARNING", logger="odchain"):
            scenario_from_mapping(copy.deepcopy(toy_doc))
            toy_doc["estimation"]["refresh_assignment"] = False
            toy_doc.setdefault("noise", {})["process"] = 0.5
            scenario_from_mapping(toy_doc)
        assert caplog.records == []


class TestNamesGivenTwice:
    """A name given twice is an error naming its key path; the second
    definition does not quietly replace the first."""

    def test_zone_id(self):
        doc = copy.deepcopy(INLINE_CORRIDOR)
        doc["network"]["zones"].append({"id": "a", "kind": "work"})
        with pytest.raises(ConfigurationError,
                           match=r"^network\.zones\[2\]\.id: zone 'a' is given twice$"):
            scenario_from_mapping(doc)

    def test_link_label(self):
        doc = copy.deepcopy(INLINE_CORRIDOR)
        doc["network"]["links"].append(
            {"label": "1", "from": "a", "to": "b", "free_flow_time": 30, "capacity": 500})
        with pytest.raises(ConfigurationError,
                           match=r"^network\.links\[1\]\.label: road '1' is given twice$"):
            scenario_from_mapping(doc)

    def test_toy_road_as_number_and_as_string(self, toy_doc):
        toy_doc["network"]["overrides"]["capacity"] = {4: 500, "4": 11000}
        with pytest.raises(ConfigurationError,
                           match=r"^network\.overrides\.capacity\.4: road '4' is given twice$"):
            scenario_from_mapping(toy_doc)


def _inline(**network):
    """The inline corridor's network with the given keys replaced."""
    return dict(copy.deepcopy(INLINE_CORRIDOR["network"]), **network)


class TestInlineNetwork:
    def test_builds_and_validates(self):
        cfg = scenario_from_mapping(copy.deepcopy(INLINE_CORRIDOR))
        assert cfg.validate() == []
        assert set(cfg.network.links) == {"1a", "1b"}
        assert cfg.network.od_index == (("a", "b"), ("b", "a"))

    def test_zone_id_with_dash_rejected(self):
        doc = copy.deepcopy(INLINE_CORRIDOR)
        doc["network"]["zones"][0]["id"] = "a-1"
        with pytest.raises(ConfigurationError):
            scenario_from_mapping(doc)

    @pytest.mark.parametrize("zid", ["h/0", "h\\0"], ids=["slash", "backslash"])
    def test_zone_id_with_path_separator_rejected(self, zid):
        """A zone id names the files of its ODs' profiles, so a path
        separator in it would write outside the report directory."""
        doc = copy.deepcopy(INLINE_CORRIDOR)
        doc["network"]["zones"][0]["id"] = zid
        with pytest.raises(ConfigurationError, match=f"zone id {re.escape(repr(zid))} must not contain"):
            scenario_from_mapping(doc)

    def test_integer_ids_and_labels_read_as_strings(self):
        """YAML reads ``id: 1`` and ``label: 4`` as ints; they name the zone
        ``'1'`` and the links ``4a`` and ``4b``."""
        doc = copy.deepcopy(INLINE_CORRIDOR)
        doc["network"]["zones"][0]["id"] = 1
        doc["network"]["links"][0].update(label=4, **{"from": 1})
        doc["network"].update(paths={"1-b": ["4a"], "b-1": ["4b"]}, detectors=["4a"])
        for leg, od in zip(doc["legs"], ("1-b", "b-1")):
            leg["od_split"] = {od: 1.0}
        cfg = scenario_from_mapping(doc)
        assert cfg.validate() == []
        assert set(cfg.network.zones) == {"1", "b"}
        assert set(cfg.network.links) == {"4a", "4b"}
        assert cfg.network.links["4a"].from_node == "1"

    def test_runs_end_to_end(self):
        """A non-toy network through the whole pipeline: the chained filters
        must beat the uncorrected seed on this single corridor."""
        from odchain.experiment import run_experiment

        cfg = scenario_from_mapping(copy.deepcopy(INLINE_CORRIDOR))
        report = run_experiment(cfg)
        rows = {r.model: r for r in report.rows}
        assert all(r.status == "ok" for r in report.rows)
        assert rows["pkf"].rmse_od < rows["seed"].rmse_od
        assert rows["kf"].impr_link_pct > 0.0


README = pathlib.Path(__file__).parents[1] / "README.md"

#: PyYAML's pure-Python safe loader, and libyaml's C parser under the same
#: constructor and resolver where PyYAML was built with it.
LOADERS = [
    pytest.param(yaml.SafeLoader, id="pure"),
    pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml",
                 marks=pytest.mark.skipif(not yaml.__with_libyaml__,
                                          reason="PyYAML was built without libyaml")),
    pytest.param(scenario_mod._LOADER, id="scenario"),
]


class TestLoaders:
    """Every loader ``load_scenario`` may use builds the same scenario."""

    @staticmethod
    def _sources(tmp_path):
        """The packaged toy and each YAML block of README.md, as files."""
        yield packaged_scenario_path("toy")
        blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        assert blocks
        for n, block in enumerate(blocks):
            path = tmp_path / f"readme-{n}.scenario"
            path.write_text(block, encoding="utf-8")
            yield path

    @pytest.mark.parametrize("loader", LOADERS)
    def test_same_scenario_as_safe_load(self, loader, tmp_path, monkeypatch):
        monkeypatch.setattr(scenario_mod, "_LOADER", loader)
        for path in self._sources(tmp_path):
            text = path.read_text(encoding="utf-8")
            assert yaml.load(text, Loader=loader) == yaml.safe_load(text)
            cfg = load_scenario(path)
            expected = scenario_from_mapping(yaml.safe_load(text))
            assert cfg == expected and repr(cfg) == repr(expected)

    @pytest.mark.parametrize("loader", LOADERS)
    def test_same_scenario_as_the_toy_document(self, loader, toy_doc, monkeypatch):
        monkeypatch.setattr(scenario_mod, "_LOADER", loader)
        assert load_scenario(packaged_scenario_path("toy")) == scenario_from_mapping(toy_doc)

    @pytest.mark.parametrize("loader", LOADERS)
    def test_malformed_file_names_its_path(self, loader, tmp_path, monkeypatch):
        monkeypatch.setattr(scenario_mod, "_LOADER", loader)
        path = tmp_path / "broken.scenario"
        path.write_text("name: [unclosed\n")
        with pytest.raises(ConfigurationError, match=f"cannot parse scenario {re.escape(str(path))}"):
            load_scenario(path)

    def test_libyaml_is_used_where_pyyaml_has_it(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert scenario_mod._LOADER.__bases__ == (expected,)


class TestKeyGivenTwice:
    """A key given twice in one mapping is an error naming the key and its
    line, at every level; PyYAML alone would keep the last."""

    @staticmethod
    def _toy_with(tmp_path, pattern, repeat):
        text = packaged_scenario_path("toy").read_text(encoding="utf-8")
        text, n = re.subn(pattern, lambda m: m.group(0) + repeat, text, count=1, flags=re.M)
        assert n == 1
        path = tmp_path / "twice.scenario"
        path.write_text(text, encoding="utf-8")
        line = text[:text.index(repeat) + 1].count("\n") + 1
        return path, line

    def test_top_level_key(self, tmp_path):
        path, line = self._toy_with(tmp_path, r"^seed: .*$", "\nseed: 7")
        with pytest.raises(ConfigurationError,
                           match=rf"found key 'seed' given twice\n.*line {line}, column 1"):
            load_scenario(path)

    def test_nested_key(self, tmp_path):
        path, line = self._toy_with(tmp_path, r'^      "5": 11000$', '\n      "5": 300')
        with pytest.raises(ConfigurationError,
                           match=rf"found key '5' given twice\n.*line {line}, column 7"):
            load_scenario(path)

    def test_a_merge_key_may_be_overridden(self):
        text = ("base: &base {alpha: 1.0, beta: 0.5}\n"
                "late: {<<: *base, beta: 0.7}\n"
                "both:\n  <<: [*base, {gamma: 2.0}]\n  alpha: 3.0\n")
        assert yaml.load(text, Loader=scenario_mod._LOADER) == yaml.safe_load(text) == {
            "base": {"alpha": 1.0, "beta": 0.5},
            "late": {"alpha": 1.0, "beta": 0.7},
            "both": {"alpha": 3.0, "beta": 0.5, "gamma": 2.0},
        }

    def test_a_key_given_twice_beside_a_merge_key(self):
        text = "base: &base {alpha: 1.0}\nlate: {<<: *base, beta: 0.7, beta: 0.8}\n"
        with pytest.raises(yaml.constructor.ConstructorError,
                           match="found key 'beta' given twice"):
            yaml.load(text, Loader=scenario_mod._LOADER)


class TestFiles:
    def test_packaged_path_exists(self):
        assert packaged_scenario_path("toy").exists()

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "ghost.scenario")

    def test_bad_yaml(self, tmp_path):
        path = tmp_path / "broken.scenario"
        path.write_text("name: [unclosed\n")
        with pytest.raises(ConfigurationError):
            load_scenario(path)

    def test_readme_example_parses_as_written(self):
        """The scenario in README.md must mean what it says: it parses under
        the strict keys, and the parsed values are checked."""
        block = re.search(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
        cfg = scenario_from_mapping(yaml.safe_load(block))
        assert cfg.validate() == []
        assert (cfg.grid.n_intervals, cfg.grid.interval_minutes) == (96, 15)
        legs = {leg.name: leg for leg in cfg.legs}
        assert legs["work_home"].feeds == ("hw_direct",)
        assert legs["hw_direct"].od_split[("1", "3")] == 0.35
        assert cfg.network.links["1a"].capacity == 11000.0
        assert cfg.network.links["7a"].capacity == 4000.0
        assert cfg.noise.prior == 0.5
        assert cfg.noise.measurement == 0.1
        assert cfg.estimation.cutoff_minute == 720.0
