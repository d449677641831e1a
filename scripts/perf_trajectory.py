#!/usr/bin/env python3
"""Perf-trajectory gate over the cvr-bench JSON artifacts.

Hosted runners are too noisy for absolute-time thresholds, so the gate
tracks *ratios between kernels measured in the same process on the same
machine* — those divide the machine out and travel between hosts:

  cvr_vs_csr          geomean over matrices of best-CSR(I) / CVR
                      seconds per iteration (micro_kernels sweep)
  fused_vs_unfused_cg geomean over (matrix, kernel) cells of unfused /
                      fused CG seconds per iteration (solver_pipeline)
  spmm_amortization_k8 geomean over matrices of spmv-loop(K=8) / spmm(K=8)
                      seconds per sweep (spmm_batch) — how much one matrix
                      stream per register block buys over 8 re-streams
  bytes_per_nnz_u16_reduction geomean over matrices of measured DRAM
                      bytes/nnz of the f64/u32 plan over the f64/u16 plan
                      (roofline_sweep) — what narrowing the column-index
                      stream buys at the memory wall
  bytes_per_nnz_f32_reduction same ratio for f64/u32 over f32x64/u32 —
                      what the fp32 value stream buys
  roofline_accuracy   geomean over every roofline_sweep record of
                      min(predicted, measured) / max(predicted, measured)
                      bytes/nnz — how well the analytical model prices
                      real (simulated-cache) DRAM traffic. Also holds an
                      absolute floor of 0.75: the model must stay within
                      25% of the measurement regardless of the baseline.

The byte invariants come from the deterministic cache simulator, not
wall-clock time, so they are machine-independent; the time invariants are
the best-of over the repeated input files (per-cell minimum of
seconds_per_iteration before the ratio), which is the same noise defence
the perf-smoke job uses. The gate fails when any invariant falls more
than --tolerance (default 15%) below the committed baseline in
results/bench_baseline.json; improvements always pass and are reported
so the baseline can be ratcheted via the update-baseline label.

The full report — invariants, per-matrix detail, and the telemetry
snapshot embedded in the first micro file — is written to --out for the
BENCH_<sha>.json artifact.
"""

import argparse
import json
import math
import sys

SCHEMA = "cvr-perf-trajectory-1"
KNOWN_BENCH_SCHEMAS = ("cvr-bench-1", "cvr-bench-2", "cvr-bench-3")

# Absolute floors enforced on top of the relative baseline check: a
# ratcheted baseline must never talk the gate into accepting a roofline
# model that misprices traffic by more than 25%.
HARD_FLOORS = {"roofline_accuracy": 0.75}


def load_records(paths):
    """Merges records across repeat files, keeping the per-cell minimum
    seconds_per_iteration (cell = matrix, format, variant)."""
    best = {}
    telemetry = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("schema") not in KNOWN_BENCH_SCHEMAS:
            sys.exit(f"{path}: unknown schema {doc.get('schema')!r}")
        if not telemetry and isinstance(doc.get("telemetry"), dict):
            telemetry = doc["telemetry"]
        for rec in doc["records"]:
            key = (rec["matrix"], rec["format"], rec["variant"])
            prev = best.get(key)
            if prev is None or rec["seconds_per_iteration"] < \
                    prev["seconds_per_iteration"]:
                best[key] = rec
    if not best:
        sys.exit(f"no records in {paths}")
    return best, telemetry


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def micro_invariants(best):
    """cvr_vs_csr from the micro_kernels sweep."""
    matrices = sorted({m for (m, _, _) in best})
    cvr_vs_csr, detail = [], {}
    for m in matrices:
        def fastest(fmt, variant=None):
            times = [r["seconds_per_iteration"]
                     for (mm, ff, vv), r in best.items()
                     if mm == m and ff == fmt and
                     (variant is None or vv == variant)]
            return min(times) if times else None

        csr = fastest("CSR(I)")
        cvr = fastest("CVR", "CVR")
        d = {}
        if csr and cvr:
            d["cvr_vs_csr"] = csr / cvr
            cvr_vs_csr.append(csr / cvr)
        detail[m] = d
    out = {}
    if cvr_vs_csr:
        out["cvr_vs_csr"] = geomean(cvr_vs_csr)
    return out, detail


def solver_invariants(best):
    """fused_vs_unfused_cg from the solver_pipeline sweep."""
    ratios, detail = [], {}
    cells = sorted({(m, f) for (m, f, v) in best if v.startswith("cg/")})
    for m, f in cells:
        fused = best.get((m, f, "cg/fused"))
        unfused = best.get((m, f, "cg/unfused"))
        if not fused or not unfused:
            continue
        r = unfused["seconds_per_iteration"] / \
            fused["seconds_per_iteration"]
        ratios.append(r)
        detail[f"{m}/{f}"] = r
    out = {}
    if ratios:
        out["fused_vs_unfused_cg"] = geomean(ratios)
    return out, detail


def spmm_invariants(best):
    """spmm_amortization_k8 from the spmm_batch K-sweep."""
    ratios, detail = [], {}
    matrices = sorted({m for (m, _, v) in best if v == "spmm/k8"})
    for m in matrices:
        loop = best.get((m, "CVR", "spmv-loop/k8"))
        spmm = best.get((m, "CVR", "spmm/k8"))
        if not loop or not spmm:
            continue
        r = loop["seconds_per_iteration"] / spmm["seconds_per_iteration"]
        ratios.append(r)
        detail[m] = r
    out = {}
    if ratios:
        out["spmm_amortization_k8"] = geomean(ratios)
    return out, detail


def roofline_invariants(best):
    """bytes_per_nnz_* and roofline_accuracy from the roofline_sweep.

    The sweep's records are keyed by plan label ("f64/u32", "f64/u16",
    "f32x64/u32", "f32x64/u16"); predicted/measured bytes per nnz come
    from the deterministic cache simulator, so no best-of reduction is
    needed — repeats only tighten the wall-clock fields.
    """
    u16, f32, accuracy = [], [], []
    detail = {}
    matrices = sorted({m for (m, _, _) in best})
    for m in matrices:
        def measured(variant):
            rec = best.get((m, "CVR", variant))
            if rec is None:
                return None
            v = rec.get("measured_bytes_per_nnz")
            return v if v and v > 0.0 else None

        d = {}
        base = measured("f64/u32")
        narrow = measured("f64/u16")
        mixed = measured("f32x64/u32")
        if base and narrow:
            d["u16_reduction"] = base / narrow
            u16.append(base / narrow)
        if base and mixed:
            d["f32_reduction"] = base / mixed
            f32.append(base / mixed)
        for (mm, ff, vv), rec in best.items():
            if mm != m:
                continue
            pred = rec.get("predicted_bytes_per_nnz")
            meas = rec.get("measured_bytes_per_nnz")
            if not pred or not meas or pred <= 0.0 or meas <= 0.0:
                continue
            acc = min(pred, meas) / max(pred, meas)
            d[f"accuracy/{vv}"] = acc
            accuracy.append(acc)
        detail[m] = d
    out = {}
    if u16:
        out["bytes_per_nnz_u16_reduction"] = geomean(u16)
    if f32:
        out["bytes_per_nnz_f32_reduction"] = geomean(f32)
    if accuracy:
        out["roofline_accuracy"] = geomean(accuracy)
    return out, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--micro", nargs="+", required=True,
                    help="micro_kernels --json outputs (repeats)")
    ap.add_argument("--solver", nargs="+", required=True,
                    help="solver_pipeline --json outputs (repeats)")
    ap.add_argument("--spmm", nargs="+", required=True,
                    help="spmm_batch --json outputs (repeats)")
    ap.add_argument("--roofline", nargs="+", required=True,
                    help="roofline_sweep --json outputs")
    ap.add_argument("--baseline", default="results/bench_baseline.json")
    ap.add_argument("--out", required=True,
                    help="where to write the full trajectory report")
    ap.add_argument("--sha", default="unknown",
                    help="commit the measurements belong to")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional drop below baseline")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite --baseline from this run and pass")
    args = ap.parse_args()

    micro_best, telemetry = load_records(args.micro)
    solver_best, _ = load_records(args.solver)
    spmm_best, _ = load_records(args.spmm)
    roofline_best, _ = load_records(args.roofline)

    invariants, micro_detail = micro_invariants(micro_best)
    solver_inv, solver_detail = solver_invariants(solver_best)
    invariants.update(solver_inv)
    spmm_inv, spmm_detail = spmm_invariants(spmm_best)
    invariants.update(spmm_inv)
    roofline_inv, roofline_detail = roofline_invariants(roofline_best)
    invariants.update(roofline_inv)

    required = ("cvr_vs_csr", "fused_vs_unfused_cg",
                "spmm_amortization_k8", "bytes_per_nnz_u16_reduction",
                "bytes_per_nnz_f32_reduction", "roofline_accuracy")
    missing = [k for k in required if k not in invariants]
    if missing:
        sys.exit(f"invariants missing from the sweeps: {missing}")

    # Hard floors bind even under --update-baseline: the ratchet must not
    # be able to commit a baseline that a fresh checkout would reject.
    for k, floor in HARD_FLOORS.items():
        if invariants[k] < floor:
            sys.exit(f"{k} = {invariants[k]:.3f} breaches the absolute "
                     f"floor {floor:.2f}")

    report = {
        "schema": SCHEMA,
        "sha": args.sha,
        "tolerance": args.tolerance,
        "invariants": invariants,
        "micro_detail": micro_detail,
        "solver_detail": solver_detail,
        "spmm_detail": spmm_detail,
        "roofline_detail": roofline_detail,
        "telemetry": telemetry,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")

    if args.update_baseline:
        baseline = {"schema": SCHEMA, "sha": args.sha,
                    "invariants": invariants}
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline updated: {args.baseline}")
        for k in required:
            print(f"  {k:20s} {invariants[k]:.3f}")
        return

    with open(args.baseline) as f:
        baseline = json.load(f)
    if baseline.get("schema") != SCHEMA:
        sys.exit(f"{args.baseline}: unknown schema "
                 f"{baseline.get('schema')!r}")

    failures = []
    for k in required:
        base = baseline["invariants"][k]
        cur = invariants[k]
        floor = base * (1.0 - args.tolerance)
        verdict = "FAIL" if cur < floor else "ok"
        drift = (cur / base - 1.0) * 100.0
        print(f"  {k:20s} {cur:8.3f}  baseline {base:8.3f}  "
              f"({drift:+.1f}%)  {verdict}")
        if cur < floor:
            failures.append(k)
        elif cur > base * (1.0 + args.tolerance):
            print(f"    note: {k} improved beyond the noise band; "
                  f"consider the update-baseline label")
    if failures:
        sys.exit(f"perf trajectory regression: {failures} fell more "
                 f"than {args.tolerance:.0%} below baseline "
                 f"{baseline.get('sha', '?')}")
    print("perf trajectory within the noise band")


if __name__ == "__main__":
    main()
