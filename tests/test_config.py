import hashlib
import json

import pytest

from biphoton.config import config_from_dict, load_config
from biphoton.errors import ValidationError


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
