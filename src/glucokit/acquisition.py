"""Synthetic three-channel NIR sensor front end.

The physical instrument shines two short-NIR wavelengths through the fingertip
and digitizes three detector channels at 16 bits / 128 sps, averaging 1024 raw
samples per reading. Here the optics are replaced by an exponential-attenuation
forward model v_i = b_i * exp(-k_i * g): monotone in glucose, invertible, and
smooth enough for cubic-polynomial calibration to work. Everything downstream
(quantization, averaging, dataset assembly) mirrors the real signal path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Annotated

import numpy as np

from .data import Checked, ChannelVoltages, Dataset, GlucoseValue, MODES, Rule, SEXES, Sample
from .errors import DataError

GLUCOSE_MIN_MGDL = 40.0
GLUCOSE_MAX_MGDL = 420.0
# most raw samples averaged per channel, 64 times the instrument's 1024;
# simulate_sample checks it before drawing, so one draw is at most 512 KB
MAX_N_RAW = 65_536
# most samples in one dataset; generate_dataset checks it before the first, and
# a sample takes about 0.9 KB in memory, so a dataset takes at most about 90 MB
MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class AdcConfig(Checked):
    """Analog-to-digital converter geometry."""

    bits: Annotated[int, Rule(ge=8, le=24)] = 16
    sample_rate_hz: Annotated[float, Rule(gt=0)] = 128.0
    fsr_mv: Annotated[float, Rule(gt=0)] = 5000.0

    @property
    def lsb_mv(self) -> float:
        return self.fsr_mv / (1 << self.bits)

    @property
    def max_code(self) -> int:
        return (1 << self.bits) - 1


@dataclass(frozen=True)
class ForwardModelConfig(Checked):
    """Parameters of the optical transfer model v_i = b_i * exp(-k_i * g).

    Baselines are the zero-glucose detector voltages; k is the per-channel
    attenuation per mg/dl. Defaults keep voltages within roughly
    [1500, 2900] mV over glucose 40..420, well inside a 5000 mV FSR.
    """

    baselines_mv: Annotated[tuple[float, float, float], Rule(gt=0)] = (3000.0, 2600.0, 2200.0)
    k_per_mgdl: Annotated[tuple[float, float, float], Rule(gt=0)] = (0.0016, 0.0011, 0.0007)
    noise_sd_mv: Annotated[float, Rule(ge=0)] = 6.0
    seed: Annotated[int, Rule(ge=0)] = 0

    def __post_init__(self):
        super().__post_init__()
        if len(self.baselines_mv) != 3 or len(self.k_per_mgdl) != 3:
            raise DataError("forward model needs exactly 3 baselines and 3 k values")

    def mean_voltages(self, glucose_mgdl: float) -> np.ndarray:
        b = np.asarray(self.baselines_mv)
        k = np.asarray(self.k_per_mgdl)
        return b * np.exp(-k * glucose_mgdl)

    def check_against(self, adc: AdcConfig) -> None:
        """Verify noiseless voltages stay inside the ADC range over 40..420 mg/dl."""
        for g in (GLUCOSE_MIN_MGDL, GLUCOSE_MAX_MGDL):
            v = self.mean_voltages(g)
            if (v <= 0).any() or (v >= adc.fsr_mv).any():
                raise DataError(
                    f"forward model drives voltage out of ADC range at {g} mg/dl: {v}"
                )


@dataclass(frozen=True)
class RawChannelTrace(Checked):
    """Raw (pre-averaging) voltage samples from one detector channel."""

    samples_mv: tuple[float, ...]
    channel: Annotated[int, Rule(choices=(1, 2, 3))]

    def __post_init__(self):
        super().__post_init__()
        if len(self.samples_mv) < 1:
            raise DataError("trace must contain at least one sample")


def coherent_average(trace: RawChannelTrace) -> float:
    """Arithmetic mean of the raw samples; shrinks noise std by 1/sqrt(N)."""
    return float(np.mean(np.asarray(trace.samples_mv, dtype=float)))


def adc_quantize(v_mv: float, adc: AdcConfig) -> int:
    """Map a voltage to its nearest code; out-of-range inputs clamp."""
    if not math.isfinite(v_mv):
        raise DataError(f"cannot quantize non-finite voltage {v_mv!r}")
    code = int(math.floor(v_mv / adc.lsb_mv + 0.5))
    return min(max(code, 0), adc.max_code)


def adc_dequantize(code: int, adc: AdcConfig) -> float:
    """Voltage at the center of a code's quantization cell."""
    if not isinstance(code, (int, np.integer)) or not 0 <= code <= adc.max_code:
        raise DataError(f"code must be an integer in [0, {adc.max_code}], got {code!r}")
    return float(code) * adc.lsb_mv


def simulate_sample(
    glucose: GlucoseValue,
    fm: ForwardModelConfig,
    adc: AdcConfig,
    n_raw: int = 1024,
    *,
    sample_id: str = "s0",
    rng: np.random.Generator | None = None,
    mode: str | None = None,
    sex: str = "unspecified",
    age_years: int | None = None,
) -> Sample:
    """Run one reading through the synthetic signal path.

    Per channel: draw n_raw noisy raw samples around the forward-model mean,
    coherently average, quantize through the ADC, and dequantize. The returned
    Sample carries the input glucose under its own kind.
    """
    if not 1 <= n_raw <= MAX_N_RAW:
        raise DataError(f"n_raw must be in [1, {MAX_N_RAW}], got {n_raw}")
    g = glucose.value_mgdl
    if not GLUCOSE_MIN_MGDL <= g <= GLUCOSE_MAX_MGDL:
        raise DataError(
            f"glucose {g} mg/dl outside supported range "
            f"[{GLUCOSE_MIN_MGDL}, {GLUCOSE_MAX_MGDL}]"
        )
    if rng is None:
        rng = np.random.default_rng(fm.seed)
    means = fm.mean_voltages(g)
    if (means <= 0).any() or (means >= adc.fsr_mv).any():
        raise DataError(f"forward model voltage out of ADC range: {means}")
    voltages = []
    for mean in means:
        if fm.noise_sd_mv == 0:
            avg = float(mean)
        else:
            raw = mean + rng.normal(0.0, fm.noise_sd_mv, size=n_raw)
            avg = float(np.mean(raw))
        voltages.append(adc_dequantize(adc_quantize(avg, adc), adc))
    kind = glucose.kind
    return Sample(
        id=sample_id,
        voltages=ChannelVoltages(*voltages),
        capillary=glucose if kind == "capillary" else None,
        serum=glucose if kind == "serum" else None,
        mode=mode,
        sex=sex,
        age_years=age_years,
    )


def generate_dataset(
    n: int,
    glucose_range: tuple[float, float],
    fm: ForwardModelConfig,
    adc: AdcConfig,
    *,
    n_raw: int = 1024,
    serum_delta: float | None = 0.05,
    id_prefix: str = "sim",
) -> Dataset:
    """Build n synthetic Samples with glucose drawn uniformly over the range.

    Voltages come from simulate_sample driven by the capillary value. When
    serum_delta is set, each sample also carries serum = capillary * (1 - delta)
    (capillary runs higher than serum clinically). Modes, sex and age are drawn
    from the same seeded stream, so the whole Dataset is a function of
    (n, range, configs).
    """
    if not 1 <= n <= MAX_SAMPLES:
        raise DataError(f"n must be in [1, {MAX_SAMPLES}], got {n}")
    lo, hi = float(glucose_range[0]), float(glucose_range[1])
    if not (GLUCOSE_MIN_MGDL <= lo <= hi <= GLUCOSE_MAX_MGDL):
        raise DataError(
            f"glucose range [{lo}, {hi}] must satisfy "
            f"{GLUCOSE_MIN_MGDL} <= lo <= hi <= {GLUCOSE_MAX_MGDL}"
        )
    if serum_delta is not None and not (0 <= serum_delta < 1):
        raise DataError(f"serum_delta must be in [0, 1), got {serum_delta!r}")
    fm.check_against(adc)
    rng = np.random.default_rng(fm.seed)
    width = max(4, len(str(n)))
    samples = []
    for i in range(n):
        g = float(rng.uniform(lo, hi)) if hi > lo else lo
        cap = GlucoseValue(g, "capillary")
        s = simulate_sample(
            cap, fm, adc, n_raw,
            sample_id=f"{id_prefix}-{i:0{width}d}",
            rng=rng,
            mode=str(rng.choice(MODES)),
            sex=str(rng.choice(SEXES[:2])),
            age_years=int(rng.integers(18, 81)),
        )
        if serum_delta is not None:
            serum = GlucoseValue(g * (1.0 - serum_delta), "serum")
            s = replace(s, serum=serum)
        samples.append(s)
    return Dataset(tuple(samples))

