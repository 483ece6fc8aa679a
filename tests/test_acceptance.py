"""Acceptance gate: eleven numbered criteria covering the whole pipeline.

Each test prints one line of the form

    [criterion NN] PASS  <measured numbers>

when its assertions hold (visible with `pytest tests/test_acceptance.py -s`).
A failed criterion shows up as an ordinary pytest failure instead.
"""

import json
import subprocess
import sys
import time

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
)
from glucokit.data import (
    ChannelVoltages,
    Dataset,
    GlucoseValue,
    Sample,
    export_csv,
    load_csv,
    split_dataset,
)
from glucokit.evaluation import (
    PairedReadings,
    avge,
    ceg_analyze,
    ceg_zone,
    mad,
    mard,
    paired_readings,
    rmse,
)
from glucokit.regressors import (
    DnnTrainConfig,
    Standardizer,
    feature_matrix,
    fit_model,
    kernel_matrix,
    KernelSpec,
    load_model,
    Mpr3Model,
    save_model,
    SvrModel,
    usable_samples,
)
from glucokit.regressors.base import design_arrays
from glucokit.regressors.dnn import (
    batch_jacobian,
    batch_residuals,
    forward_batch,
    init_theta,
    levenberg_marquardt,
    n_params,
)
from glucokit.telemetry import (
    MockEndpoint,
    ReadingRecord,
    RetryPolicy,
    UploadQueue,
    sync as run_sync,
)

from oracles import (
    brute_force_svr_dual,
    ceg_zone_oracle,
    central_difference_jacobian,
    svr_dual_objective,
    svr_kkt_violations,
)


def _pass(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS  {text}")


# 1. Planted-model recovery: 100 noiseless samples from a known 19-term cubic;
#    every coefficient and the intercept within 1e-6 relative; mARD <= 1e-8 %.
def test_criterion_01_planted_model_recovery(planted_poly):
    t0 = time.perf_counter()
    data, coeffs, intercept = planted_poly(n=100, seed=3)
    m = Mpr3Model.fit_dataset(data, "capillary")[0]

    got = np.asarray(m.coefficients)
    rel_c = float(np.max(np.abs(got - coeffs) / np.maximum(np.abs(coeffs), 1e-12)))
    rel_b = abs(m.intercept - intercept) / abs(intercept)
    assert rel_c <= 1e-6
    assert rel_b <= 1e-6

    preds = tuple(m.predict_batch([s.voltages])[0].value_mgdl for s in data.samples)
    refs = tuple(s.capillary.value_mgdl for s in data.samples)
    mard_pct = mard(PairedReadings(refs=refs, preds=preds))
    assert mard_pct <= 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, f"coeff rel err {rel_c:.2e}, intercept rel err {rel_b:.2e}, "
             f"mARD {mard_pct:.2e} %, {elapsed:.3f} s")


# 2. Least-squares optimality: |X'r|_inf <= 1e-8 * ||y||_2 on 50 random fits.
def test_criterion_02_least_squares_optimality():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        fm = ForwardModelConfig(noise_sd_mv=float(rng.uniform(1.0, 8.0)),
                                seed=int(rng.integers(1_000_000)))
        data = generate_dataset(int(rng.integers(25, 61)), (60.0, 340.0),
                                fm, AdcConfig(), n_raw=4)
        m = Mpr3Model.fit_dataset(data, "capillary")[0]
        rows = usable_samples(data, "capillary")
        X, y = design_arrays(rows, "capillary")
        phi = np.hstack([feature_matrix(m.x_scaler.transform(X)),
                         np.ones((len(rows), 1))])
        theta = np.append(m.coefficients, m.intercept)
        grad_inf = float(np.max(np.abs(phi.T @ (y - phi @ theta))))
        bound = 1e-8 * float(np.linalg.norm(y))
        assert grad_inf <= bound
        worst = max(worst, grad_inf / bound)
    _pass(2, f"50 datasets, worst |X'r|_inf at {worst:.3f} of the 1e-8*||y|| bound")


# 3. SVR oracle equivalence: 20 small instances across all four kernel kinds;
#    dual objective within 1e-6 of brute force; KKT suite clean at 1e-6.
def test_criterion_03_svr_oracle_equivalence():
    kernels = (KernelSpec("linear"), KernelSpec("quadratic"),
               KernelSpec("cubic"), KernelSpec.gaussian("medium"))
    eps, c = 0.1, 2.0
    worst_gap = 0.0
    for case in range(20):
        kernel = kernels[case % 4]
        n = 4 + case % 5
        rng = np.random.default_rng(300 + case)
        samples = tuple(
            Sample(f"v{i:02d}", ChannelVoltages(*rng.uniform(1600.0, 3000.0, 3)),
                   GlucoseValue(float(rng.uniform(60.0, 320.0)), "capillary"))
            for i in range(n)
        )
        m = SvrModel.fit_dataset(Dataset(samples), "capillary", kernel=kernel, eps=eps, c=c)[0]
        Xs = np.asarray(m.train_inputs)
        K = kernel_matrix(kernel, Xs, Xs)
        rows = sorted(samples, key=lambda s: s.id)
        y = m.y_scaler.transform(
            np.array([s.capillary.value_mgdl for s in rows]))

        beta_star, obj_star = brute_force_svr_dual(K, y, eps, c)
        obj_model = svr_dual_objective(K, y, eps, np.asarray(m.beta))
        gap = abs(obj_model - obj_star)
        assert gap <= 1e-6, f"case {case} ({kernel.kind}, n={n}): gap {gap:.3e}"
        violations = svr_kkt_violations(K, y, eps, c, np.asarray(m.beta),
                                        m.bias, tol=1e-6)
        assert violations == [], f"case {case}: {violations}"
        worst_gap = max(worst_gap, gap)
    _pass(3, f"20 instances x 4 kernels, worst dual objective gap {worst_gap:.2e}, "
             f"no KKT violations at 1e-6")


# 4. DNN Jacobian vs central finite differences on 3-4-1 and 3-4-4-1, 20 seeds.
def test_criterion_04_dnn_jacobian_vs_finite_differences():
    worst = 0.0
    for widths in ((3, 4, 1), (3, 4, 4, 1)):
        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            theta = init_theta(widths, seed=seed)
            X = rng.normal(size=(5, 3))
            J = batch_jacobian(widths, theta, X)
            J_fd = central_difference_jacobian(
                lambda th: forward_batch(widths, th, X), theta)
            mask = np.abs(J_fd) > 1e-8
            rel = float(np.max(np.abs(J - J_fd)[mask] / np.abs(J_fd)[mask]))
            assert rel <= 1e-4, f"widths {widths} seed {seed}: rel err {rel:.3e}"
            worst = max(worst, rel)
    _pass(4, f"both topologies x 20 seeds, worst elementwise rel err {worst:.2e}")


# 5. LM descent on the small-network regression task: strictly decreasing
#    accepted SSE, final SSE < 1% of initial within 200 iterations.
def test_criterion_05_lm_descent():
    t0 = time.perf_counter()
    fm = ForwardModelConfig(noise_sd_mv=2.0, seed=5)
    data = generate_dataset(200, (60.0, 340.0), fm, AdcConfig(), n_raw=4)
    cfg = DnnTrainConfig(hidden_layers=2, width=4, seed=0, max_iters=200)

    rows = usable_samples(data, "capillary")
    X, y_raw = design_arrays(rows, "capillary")
    Xs = Standardizer.fit(X).transform(X)
    ys = Standardizer.fit(y_raw).transform(y_raw)
    widths = cfg.widths(n_inputs=3)
    res = levenberg_marquardt(
        lambda th: batch_residuals(widths, th, Xs, ys),
        lambda th: batch_jacobian(widths, th, Xs),
        init_theta(widths, cfg.seed), cfg,
    )

    path = res.sse_path
    assert all(b < a for a, b in zip(path, path[1:])), "SSE not strictly decreasing"
    assert res.iterations <= 200
    assert path[-1] < 0.01 * path[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(5, f"SSE {path[0]:.3f} -> {path[-1]:.6f} "
             f"({path[-1] / path[0]:.2%}) in {res.iterations} iterations, "
             f"{len(path) - 1} accepted steps, {elapsed:.2f} s")


# 6. CEG correctness: exact agreement with the rule table on the 1 mg/dl grid
#    over [1,400]^2, the canonical quartet, and percentages summing to 100.
def test_criterion_06_ceg_correctness():
    vals = np.arange(1.0, 401.0)
    R, P = np.meshgrid(vals, vals, indexing="ij")
    refs, preds = R.ravel(), P.ravel()
    want = ceg_zone_oracle(refs, preds)
    got = np.array([ceg_zone(r, p) for r, p in zip(refs, preds)])
    mismatches = int((got != want).sum())
    assert mismatches == 0
    assert got.size == 160_000

    for (r, p), zone in {(100.0, 100.0): "A", (50.0, 200.0): "E",
                         (180.0, 210.0): "A", (250.0, 100.0): "D"}.items():
        assert ceg_zone(r, p) == zone

    rng = np.random.default_rng(6)
    refs2 = rng.uniform(20.0, 400.0, size=500)
    preds2 = np.clip(refs2 + rng.normal(scale=50.0, size=500), 1.0, 400.0)
    res = ceg_analyze(PairedReadings(refs=tuple(refs2), preds=tuple(preds2)))
    assert sum(res.percentages.values()) == pytest.approx(100.0, abs=1e-9)
    _pass(6, f"{got.size} grid points, 0 mismatches; canonical quartet correct; "
             f"percentages sum to 100")


# 7. Metric identities: the 2-point hand example, rmse >= mad on 1000 random
#    pairings, and scale invariance of the relative metrics under factor 3.
def test_criterion_07_metric_identities():
    p = PairedReadings(refs=(100.0, 200.0), preds=(110.0, 180.0))
    assert mard(p) == pytest.approx(10.0, abs=1e-12)
    assert avge(p) == pytest.approx(10.0, abs=1e-12)
    assert mad(p) == pytest.approx(15.0, abs=1e-12)
    assert rmse(p) == pytest.approx(15.8113883008, rel=1e-9)

    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        refs = rng.uniform(30.0, 400.0, size=n)
        preds = refs + rng.normal(scale=30.0, size=n)
        q = PairedReadings(refs=tuple(refs), preds=tuple(preds))
        assert rmse(q) >= mad(q) - 1e-12

    refs = rng.uniform(60.0, 350.0, size=40)
    preds = refs * rng.uniform(0.8, 1.2, size=40)
    a = PairedReadings(refs=tuple(refs), preds=tuple(preds))
    b = PairedReadings(refs=tuple(3.0 * refs), preds=tuple(3.0 * preds))
    assert mard(b) == pytest.approx(mard(a), rel=1e-12)
    assert avge(b) == pytest.approx(avge(a), rel=1e-12)
    _pass(7, "hand values exact; rmse >= mad on 1000 pairings; "
             "mARD/AvgE invariant under x3 rescale")


# 8. Qualitative reproduction: with serum channel noise below capillary noise,
#    serum mARD < capillary mARD for MPR3; and on the capillary dataset
#    MPR3 < fine-Gaussian SVR < default DNN (ordering only).
def test_criterion_08_qualitative_error_ordering():
    t0 = time.perf_counter()
    adc = AdcConfig()

    def pipeline(noise_sd, kind):
        fm = ForwardModelConfig(noise_sd_mv=noise_sd, seed=11)
        ds = generate_dataset(187, (60.0, 340.0), fm, adc, n_raw=1)
        ds = split_dataset(ds, seed=7, fractions=(113 / 187, 74 / 187, 0.0))
        return ds.subset("calibration"), ds.subset("validation"), kind

    cal_cap, val_cap, _ = pipeline(40.0, "capillary")
    cal_ser, val_ser, _ = pipeline(10.0, "serum")

    def validation_mard(spec, cal, val, kind, **opts):
        tm = fit_model(spec, cal, kind, seed=0, **opts)
        return mard(paired_readings(tm, val, kind))

    mard_cap = validation_mard("mpr3", cal_cap, val_cap, "capillary")
    mard_ser = validation_mard("mpr3", cal_ser, val_ser, "serum")
    mard_svr = validation_mard("svr:fine-gaussian", cal_cap, val_cap, "capillary")
    mard_dnn = validation_mard("dnn", cal_cap, val_cap, "capillary")

    assert mard_ser < mard_cap, (
        f"serum {mard_ser:.3f} % should beat capillary {mard_cap:.3f} %")
    assert mard_cap < mard_svr < mard_dnn, (
        f"expected mpr3 < svr < dnn, got {mard_cap:.3f} < {mard_svr:.3f} "
        f"< {mard_dnn:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _pass(8, f"serum {mard_ser:.2f} % < capillary {mard_cap:.2f} %; "
             f"mpr3 {mard_cap:.2f} % < svr {mard_svr:.2f} % < dnn "
             f"{mard_dnn:.2f} %; {elapsed:.1f} s")


# 9. ADC properties: error <= LSB/2 on 1e5 codable voltages, monotone on a
#    sorted sweep, averaging gain within [0.7, 1.3] of sigma/sqrt(1024).
def test_criterion_09_adc_properties():
    adc = AdcConfig()
    rng = np.random.default_rng(9)
    half_lsb = adc.lsb_mv / 2.0

    v = rng.uniform(0.0, adc.max_code * adc.lsb_mv, size=100_000)
    err = np.array([abs(adc_dequantize(adc_quantize(x, adc), adc) - x) for x in v])
    assert float(err.max()) <= half_lsb

    sweep = np.sort(rng.uniform(0.0, adc.fsr_mv, size=20_000))
    codes = np.array([adc_quantize(x, adc) for x in sweep])
    assert (np.diff(codes) >= 0).all()

    sigma, n_raw, mean_mv = 6.0, 1024, 2000.0
    means = [
        coherent_average(RawChannelTrace(
            tuple(rng.normal(mean_mv, sigma, size=n_raw)), channel=1))
        for _ in range(200)
    ]
    gain = float(np.std(means)) / (sigma / np.sqrt(n_raw))
    assert 0.7 <= gain <= 1.3
    _pass(9, f"max quantization error {err.max():.6f} mV <= LSB/2 "
             f"{half_lsb:.6f} mV; sweep monotone; averaging gain {gain:.3f}")


# 10. Telemetry exactly-once: alternating 503s plus a mid-sync SIGKILL, then a
#     restart; each of 50 reading_ids lands in the store exactly once, the
#     queue drains, and queue.log survives byte-for-byte.
def test_criterion_10_telemetry_exactly_once(tmp_path):
    qdir = tmp_path / "queue"
    expected = [f"acc-{i:04d}" for i in range(50)]
    with UploadQueue(qdir) as q:
        for i in range(50):
            q.enqueue(ReadingRecord(
                reading_id=expected[i], patient_id="p-accept",
                timestamp_utc=f"2026-04-01T09:{i:02d}:00Z",
                glucose=GlucoseValue(90.0 + i, "capillary"),
                model_tag="mpr3:capillary", device_id="dev-accept",
            ))
    log_path = qdir / "queue.log"
    original_bytes = log_path.read_bytes()

    with MockEndpoint() as ep:
        ep.faults["every_other"] = True
        ep.faults["latency"] = 0.05
        proc = subprocess.Popen(
            [sys.executable, "-m", "glucokit.cli", "sync",
             "--queue", str(qdir), "--endpoint", ep.url,
             "--base-delay", "0.01", "--max-delay", "0.05"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and ep.snapshot()["count"] < 8:
                time.sleep(0.02)
            proc.kill()
        finally:
            proc.wait(timeout=30)
        mid_count = ep.snapshot()["count"]
        assert 0 < mid_count < 50, f"kill was not mid-sync (store {mid_count})"
        assert log_path.read_bytes() == original_bytes

        ep.faults["latency"] = 0.0  # keep the alternating 503s on
        with UploadQueue(qdir) as q2:  # the restart
            assert log_path.read_bytes() == original_bytes
            stats = run_sync(
                q2, ep.url, RetryPolicy(base_delay=0.001, max_delay=0.002,
                                        jitter=0.0, max_attempts=6),
                sleep_fn=lambda _: None, rng=np.random.default_rng(0),
            )
            assert stats.drained() and stats.dead_lettered == 0
            assert q2.pending_count() == 0

        snap = ep.snapshot()
        assert snap["count"] == 50
        assert sorted(snap["ids"]) == expected
    assert log_path.read_bytes() == original_bytes
    _pass(10, f"killed after {mid_count} uploads; restart + resync delivered "
              f"all 50 ids exactly once; queue.log byte-identical")


# 11. Round trips: CSV export/load structural equality on 100 random Datasets;
#     saved models predict identically after reload.
def test_criterion_11_round_trips(tmp_path):
    rng = np.random.default_rng(11)
    for i in range(100):
        fm = ForwardModelConfig(noise_sd_mv=float(rng.uniform(0.0, 8.0)),
                                seed=int(rng.integers(1_000_000)))
        ds = generate_dataset(
            int(rng.integers(1, 41)), (60.0, 340.0), fm, AdcConfig(), n_raw=1,
            serum_delta=0.05 if rng.random() < 0.7 else None,
        )
        if len(ds) >= 12 and rng.random() < 0.5:
            ds = split_dataset(ds, seed=int(rng.integers(100)),
                               fractions=(0.5, 0.3, 0.2))
        path = tmp_path / f"ds-{i:03d}.csv"
        export_csv(ds, path)
        assert load_csv(path) == ds

    fm = ForwardModelConfig(noise_sd_mv=2.0, seed=4)
    data = generate_dataset(30, (60.0, 340.0), fm, AdcConfig(), n_raw=4)
    probes = [ChannelVoltages(*rng.uniform(1500.0, 3200.0, size=3))
              for _ in range(20)]
    checked = 0
    for spec, opts in (("mpr3", {}), ("svr:fine-gaussian", {}),
                       ("dnn", {"hidden_layers": 1, "width": 3, "max_iters": 10})):
        tm = fit_model(spec, data, "capillary", **opts)
        mpath = tmp_path / f"{spec.replace(':', '_')}.json"
        save_model(tm, mpath)
        back = load_model(mpath)
        for v in probes:
            a, b = tm.predict(v), back.predict(v)
            assert a.value_mgdl == b.value_mgdl and a.kind == b.kind
            checked += 1
    _pass(11, f"100 dataset round trips equal; {checked} reloaded predictions "
              f"bit-identical across 3 model families")
