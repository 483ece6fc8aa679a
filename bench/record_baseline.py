"""Record validation RMSE and Clarke zone-A share for every model spec.

    python3 bench/record_baseline.py      # from the repository root

Fits every model spec on the campaign's calibration set and evaluates it on
the campaign's validation set, at each size. Writes bench/baseline.json: for
each size, [RMSE mg/dl, zone A %] per model spec, or null where the fit raised
SolverError. The campaign checks its results against these numbers, so run
this only on the commit whose numerical results are the reference.
"""

import json
import os
import sys

import run  # noqa: F401  (pins BLAS threads, puts ./src on the path)
from glucokit.errors import SolverError
from glucokit.evaluation import ceg_analyze, metrics_report, paired_readings
from tracing import Tracer
from workloads import (CALIBRATION_SEED, HERE, KIND, MODEL_SPECS, SIZES, VALIDATION_SEED,
                       fit_spec, simulate)


def main() -> int:
    span = Tracer("baseline").span  # disabled: records nothing
    doc = {}
    for size_name, size in SIZES.items():
        train = simulate(span, size.calibration_n, CALIBRATION_SEED, "calibration")
        val = simulate(span, size.validation_n, VALIDATION_SEED, "validation")
        doc[size_name] = {}
        for spec in MODEL_SPECS:
            try:
                tm = fit_spec(size, spec, train)
            except SolverError as exc:  # recorded: the campaign fails here too
                print(size_name, spec, exc, file=sys.stderr)
                doc[size_name][spec] = None
                continue
            p = paired_readings(tm, val, KIND)
            doc[size_name][spec] = [metrics_report(p).rmse_mgdl, ceg_analyze(p).percentages["A"]]
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
