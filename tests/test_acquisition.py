"""Signal path: forward model, ADC quantization, averaging, dataset synthesis."""

import json

import numpy as np
import pytest

from glucokit.acquisition import (
    AdcConfig,
    ForwardModelConfig,
    RawChannelTrace,
    adc_dequantize,
    adc_quantize,
    coherent_average,
    generate_dataset,
    simulate_sample,
)
from glucokit.cli import main
from glucokit.data import GlucoseValue, json_reader, read_json_object
from glucokit.errors import DataError


class TestAdcConfig:
    def test_lsb_for_16_bit_2500mv(self):
        adc = AdcConfig(bits=16, fsr_mv=2500.0)
        assert adc.lsb_mv == 2500.0 / 65536
        assert adc.lsb_mv / 2 == 0.019073486328125

    def test_max_code(self):
        assert AdcConfig(bits=8).max_code == 255

    def test_bit_depth_bounds(self):
        with pytest.raises(DataError):
            AdcConfig(bits=7)
        with pytest.raises(DataError):
            AdcConfig(bits=25)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(DataError, match="resolution"):
            json_reader(AdcConfig, "adc")({"resolution": 12})


class TestQuantizer:
    def test_midscale_code(self):
        adc = AdcConfig(bits=16, fsr_mv=2500.0)
        assert adc_quantize(1250.0, adc) == 32768

    def test_round_trip_error_below_half_lsb(self, adc):
        rng = np.random.default_rng(17)
        half = adc.lsb_mv / 2
        for v in rng.uniform(0.0, adc.fsr_mv - adc.lsb_mv, size=2000):
            err = abs(adc_dequantize(adc_quantize(float(v), adc), adc) - v)
            assert err <= half + 1e-12

    def test_monotone_on_sorted_sweep(self, adc):
        sweep = np.linspace(0.0, adc.fsr_mv, 4001)
        codes = [adc_quantize(float(v), adc) for v in sweep]
        assert all(a <= b for a, b in zip(codes, codes[1:]))

    def test_clamps_at_rails(self, adc):
        assert adc_quantize(-50.0, adc) == 0
        assert adc_quantize(adc.fsr_mv * 2, adc) == adc.max_code

    def test_rejects_non_finite(self, adc):
        with pytest.raises(DataError):
            adc_quantize(float("nan"), adc)

    def test_dequantize_code_range(self, adc):
        assert adc_dequantize(0, adc) == 0.0
        with pytest.raises(DataError):
            adc_dequantize(adc.max_code + 1, adc)
        with pytest.raises(DataError):
            adc_dequantize(-1, adc)


class TestCoherentAverage:
    def test_equals_arithmetic_mean(self):
        t = RawChannelTrace((1.0, 2.0, 4.0), channel=1)
        assert coherent_average(t) == pytest.approx(7.0 / 3.0)

    def test_noise_suppression_scales_as_sqrt_n(self):
        # sd of the average of n iid draws should sit near sigma/sqrt(n)
        rng = np.random.default_rng(23)
        sigma, n, trials = 8.0, 256, 300
        means = []
        for _ in range(trials):
            raw = rng.normal(1000.0, sigma, size=n)
            means.append(coherent_average(RawChannelTrace(tuple(raw), channel=2)))
        got = np.std(means)
        assert 0.7 * sigma / np.sqrt(n) <= got <= 1.3 * sigma / np.sqrt(n)

    def test_trace_validation(self):
        with pytest.raises(DataError):
            RawChannelTrace((), channel=1)
        with pytest.raises(DataError):
            RawChannelTrace((1.0,), channel=4)
        with pytest.raises(DataError):
            RawChannelTrace((float("nan"),), channel=1)


class TestForwardModel:
    def test_mean_voltages_decay_with_glucose(self):
        fm = ForwardModelConfig()
        low = fm.mean_voltages(60.0)
        high = fm.mean_voltages(300.0)
        assert np.all(high < low)
        assert np.allclose(low, fm.baselines_mv * np.exp(-np.asarray(fm.k_per_mgdl) * 60.0))

    def test_parameters_must_be_positive(self):
        with pytest.raises(DataError):
            ForwardModelConfig(k_per_mgdl=(0.0016, 0.0, 0.0007))
        with pytest.raises(DataError):
            ForwardModelConfig(noise_sd_mv=-1.0)

    def test_check_against_flags_clipping(self, adc):
        fm = ForwardModelConfig(baselines_mv=(6000.0, 2600.0, 2200.0))
        with pytest.raises(DataError):
            fm.check_against(adc)


class TestSimulateSample:
    def test_noiseless_sample_is_quantized_mean(self, adc):
        fm = ForwardModelConfig(noise_sd_mv=0.0)
        g = GlucoseValue(150.0, "capillary")
        s = simulate_sample(g, fm, adc, n_raw=64, sample_id="z0")
        want = [adc_dequantize(adc_quantize(float(v), adc), adc)
                for v in fm.mean_voltages(150.0)]
        assert [s.voltages.ch1_mv, s.voltages.ch2_mv, s.voltages.ch3_mv] == want
        assert s.capillary.value_mgdl == 150.0 and s.serum is None

    def test_reference_lands_in_kind_slot(self, adc):
        fm = ForwardModelConfig(noise_sd_mv=0.0)
        s = simulate_sample(GlucoseValue(90.0, "serum"), fm, adc, n_raw=4)
        assert s.serum.value_mgdl == 90.0 and s.capillary is None

    def test_seeded_rng_is_deterministic(self, adc):
        fm = ForwardModelConfig(noise_sd_mv=6.0, seed=5)
        a = simulate_sample(GlucoseValue(120.0, "capillary"), fm, adc, n_raw=32)
        b = simulate_sample(GlucoseValue(120.0, "capillary"), fm, adc, n_raw=32)
        assert a.voltages == b.voltages

    def test_glucose_domain_enforced(self, adc):
        fm = ForwardModelConfig()
        with pytest.raises(DataError, match="range"):
            simulate_sample(GlucoseValue(30.0, "capillary"), fm, adc)
        with pytest.raises(DataError):
            simulate_sample(GlucoseValue(500.0, "capillary"), fm, adc)


class TestGenerateDataset:
    def test_shape_ids_and_metadata(self, adc):
        fm = ForwardModelConfig(seed=8)
        d = generate_dataset(25, (70.0, 300.0), fm, adc, n_raw=4)
        assert len(d) == 25
        assert d.samples[0].id == "sim-0000"
        for s in d.samples:
            assert 70.0 <= s.capillary.value_mgdl <= 300.0
            assert s.mode is not None and s.sex in ("male", "female")
            assert 18 <= s.age_years <= 80

    def test_serum_tracks_capillary(self, adc):
        fm = ForwardModelConfig(seed=8)
        d = generate_dataset(10, (70.0, 300.0), fm, adc, n_raw=4, serum_delta=0.08)
        for s in d.samples:
            assert s.serum.value_mgdl == pytest.approx(s.capillary.value_mgdl * 0.92)

    def test_degenerate_range_is_allowed(self, adc):
        fm = ForwardModelConfig(seed=2, noise_sd_mv=0.0)
        d = generate_dataset(4, (100.0, 100.0), fm, adc, n_raw=1)
        assert all(s.capillary.value_mgdl == 100.0 for s in d.samples)

    def test_range_must_stay_in_domain(self, adc):
        fm = ForwardModelConfig()
        with pytest.raises(DataError):
            generate_dataset(5, (30.0, 100.0), fm, adc)
        with pytest.raises(DataError):
            generate_dataset(5, (300.0, 200.0), fm, adc)

    def test_deterministic_per_seed(self, adc):
        fm = ForwardModelConfig(seed=13)
        a = generate_dataset(8, (60.0, 340.0), fm, adc, n_raw=4)
        b = generate_dataset(8, (60.0, 340.0), fm, adc, n_raw=4)
        assert a == b


def simulate_with_config(path, tmp_path, capsys):
    """Exit code and stderr of a small simulate run configured by the file at path."""
    rc = main(["simulate", "--config", str(path), "--n", "9", "--n-raw", "4",
               "--out", str(tmp_path / "d.csv")])
    return rc, capsys.readouterr().err


class TestLoadConfigs:
    """The config file's two simulator sections, read as simulate reads them."""

    def test_round_trip_from_file(self, tmp_path):
        doc = {
            "forward_model": {"noise_sd_mv": 3.0, "seed": 4},
            "adc": {"bits": 12, "fsr_mv": 3300.0},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        config = read_json_object(path, "config")
        fm = json_reader(ForwardModelConfig, "forward_model")(config["forward_model"])
        adc = json_reader(AdcConfig, "adc")(config["adc"])
        assert fm.noise_sd_mv == 3.0 and fm.seed == 4
        assert adc.bits == 12 and adc.fsr_mv == 3300.0

    def test_invalid_utf8_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe {}")
        rc, err = simulate_with_config(path, tmp_path, capsys)
        assert rc == 2 and f"data error: config {path}: not valid JSON (" in err

    def test_section_of_the_wrong_type_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"forward_model": {"k_per_mgdl": [0.001, "x", 0.001]}}))
        rc, err = simulate_with_config(path, tmp_path, capsys)
        assert rc == 2 and "forward_model.k_per_mgdl: wants an array of numbers" in err

    def test_unknown_section_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"forward_model": {"gain": 2.0}, "adc": {}}))
        rc, err = simulate_with_config(path, tmp_path, capsys)
        assert rc == 2 and "forward_model: unknown keys ['gain']" in err
