import hashlib
import json
import types
import typing

import numpy as np
import pytest

from biphoton.cli import main
from biphoton.config import ExperimentConfig, config_from_dict, load_config
from biphoton.correlate import CorrelationHistogram
from biphoton.errors import ValidationError

# Each section of a config document and the type that builds it.
SECTIONS = {name: hint for name, hint in typing.get_type_hints(ExperimentConfig).items()
            if name != "seed"}


def wrong_values(hint):
    """Values that do not fit a field annotated ``hint``: a bool, a string,
    a list, null unless the field is optional, a fraction for an int and
    NaN and infinity for a float."""
    optional = typing.get_origin(hint) is types.UnionType
    base = typing.get_args(hint)[0] if optional else hint
    values = {"bool": True, "text": "1", "list": [0.5]}
    if not optional:
        values["null"] = None
    if base is int:
        values["fraction"] = 1.5
    if base is float:
        values.update(nan=float("nan"), inf=float("inf"))
    return values


WRONG_TYPES = [pytest.param(section, name, value, id=f"{section}.{name}-{label}")
               for section, cls in SECTIONS.items()
               for name, hint in typing.get_type_hints(cls).items()
               for label, value in wrong_values(hint).items()]


class TestConfigFromDict:
    def test_defaults(self):
        config = config_from_dict({})
        assert config.seed == 1
        assert config.source.pair_rate == 0.0
        assert config.histogram.bin_width == 1.4

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict({"sorce": {}})

    def test_unknown_key_reports_field_path(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"source": {"pair_rte": 1.0}})
        assert err.value.field == "source"
        assert "pair_rte" in str(err.value)

    def test_invalid_value_reports_section(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"signal_detector": {"quantum_efficiency": 1.5}})
        assert err.value.field == "signal_detector"

    def test_seed_must_be_integer(self):
        with pytest.raises(ValidationError):
            config_from_dict({"seed": "7"})

    def test_tuple_fields_coerced_from_lists(self):
        config = config_from_dict({
            "duty_cycle": {"always_on_channels": [4, 5]},
        })
        assert config.duty_cycle.always_on_channels == (4, 5)

    def test_analog_levels_keys_coerced_to_int(self):
        config = config_from_dict(
            {"duty_cycle": {"analog_levels_v": {"0": 1.1}}})
        assert config.duty_cycle.analog_levels_v == {0: 1.1}

    @pytest.mark.parametrize("duty_cycle", [
        {"analog_levels_v": {"a": 1.0}},
        {"analog_levels_v": {"1.5": 1.0}},
        {"analog_levels_v": [1.0]},
        {"always_on_channels": 5},
        {"always_on_channels": [1.5]},
        {"always_on_channels": ["4"]},
        {"always_on_channels": [True]},
        {"cooling_channel": 1.5},
        {"gate_channel": "2"},
    ], ids=["text-key", "fraction-key", "list-of-levels", "not-a-list", "fraction",
            "text", "bool", "fraction-cooling", "text-gate"])
    def test_malformed_channels_report_the_section(self, duty_cycle):
        with pytest.raises(ValidationError) as err:
            config_from_dict({"duty_cycle": duty_cycle})
        assert err.value.field == "duty_cycle"

    def test_fit_and_metrics_sections_rejected(self):
        # The fit and metrics commands take their settings as flags only.
        for section in ({"fit": {"model": "cross"}},
                        {"metrics": {"coincidence_window_ns": 40.0}}):
            with pytest.raises(ValidationError, match="unknown section"):
                config_from_dict(section)


class TestFieldTypes:
    """Every field of every section is checked against its annotation."""

    @pytest.mark.parametrize("section, name, value", WRONG_TYPES)
    def test_config_from_dict_names_section_and_field(self, section, name, value):
        with pytest.raises(ValidationError) as err:
            config_from_dict({section: {name: value}})
        assert err.value.field == section
        assert f"{section}: {name}: " in str(err.value)

    @pytest.mark.parametrize("section, name, value", WRONG_TYPES)
    def test_sequence_exits_2(self, tmp_path, capsys, section, name, value):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({section: {name: value}}))
        assert main(["sequence", "--config", str(config)]) == 2
        assert f"{section}: {name}: " in capsys.readouterr().err

    @pytest.mark.parametrize("document", [
        {"source": {"pair_rate": True}},
        {"signal_detector": {"dead_time": True}},
        {"histogram": {"bin_width": True}},
        {"duty_cycle": {"load_duration_us": True}},
        {"histogram": {"channel_a": True}},
        {"source": {"tau_c": float("nan")}},
    ], ids=["bool-pair-rate", "bool-dead-time", "bool-bin-width", "bool-load-duration",
            "bool-channel", "nan-tau-c"])
    def test_simulate_exits_2(self, tmp_path, capsys, document):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(document))
        stream = tmp_path / "run.tags"
        assert main(["simulate", "--config", str(config), "--out", str(stream)]) == 2
        (section, fields), = document.items()
        assert f"{section}: {next(iter(fields))}: " in capsys.readouterr().err
        assert not stream.exists()

    @pytest.mark.parametrize("source", [
        {"chaotic_tau_s": float("nan"), "uncorrelated_rate_s": 1e4},
        {"uncorrelated_rate_s": float("inf")},
    ], ids=["nan-chaotic-tau", "inf-uncorrelated-rate"])
    def test_documents_that_would_not_finish_are_rejected(self, tmp_path, source):
        # Checked through load_config only: simulate would not return.
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"source": source}))
        with pytest.raises(ValidationError) as err:
            load_config(config)
        assert err.value.field == "source"

    def test_integer_bin_width_reaches_the_sidecar_as_given(self, tmp_path):
        config = config_from_dict({"histogram": {"bin_width": 2}}).histogram
        hist = CorrelationHistogram(config=config, counts=np.zeros(config.n_bins, np.int64),
                                    duration_s=1.0)
        hist.export_csv(tmp_path / "h.csv")
        assert '"bin_width_ns": 2,' in (tmp_path / "h.csv.meta.json").read_text()

    def test_numpy_scalars_construct_every_section(self):
        for cls in SECTIONS.values():
            default = cls()
            values = {name: np.int64(value) if hint is int else np.float64(value)
                      for name, hint in typing.get_type_hints(cls).items()
                      if hint in (int, float)
                      for value in [getattr(default, name)]}
            assert cls(**values) == default


class TestLoadConfig:
    def test_returns_config_and_byte_hash(self, tmp_path):
        raw = json.dumps({"seed": 9, "source": {"pair_rate": 100.0}}).encode()
        path = tmp_path / "run.json"
        path.write_bytes(raw)
        config, digest = load_config(path)
        assert config.seed == 9
        assert config.source.pair_rate == 100.0
        assert digest == hashlib.sha256(raw).hexdigest()

    def test_hash_tracks_bytes_not_content(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"seed": 9}')
        b.write_text('{"seed":  9}')
        assert load_config(a)[1] != load_config(b)[1]

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_config(path)
