#!/usr/bin/env python3
"""Titan-Next benchmark: the closed loop end to end and layer by layer.

Builds the benchmark package in perfbench/ (it compiles the library from
src/) and runs each workload in a fresh process, so set-up time, peak RSS
and caches are never inherited from another workload:

    python3 perfbench/run.py --workload closed-loop-week --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3     # every workload in turn

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is non-zero when any correctness check
fails (the result line is still printed, with "correct": false) or when
the benchmark cannot run at all (no result line).

--seed picks one of VARIANTS recorded input variants (seed mod VARIANTS),
so every plan objective and controller count is checked against a
reference recorded for exactly those inputs; `--record` re-records them.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["closed-loop-week", "replan-rolling", "assign-hot-path"]
VARIANTS = 8
REFERENCES = HERE / "references.json"
# The optimum value is unique even where pivot rules reach different
# vertices; any correct solver matches it to this relative tolerance.
OBJECTIVE_RTOL = 1e-6
# A child that has not finished by then has hung.
CHILD_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")) / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src").is_dir():
        raise RuntimeError(f"no library sources: {ROOT / 'src'} is missing")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True, stdout=sys.stderr)
    return out / "titan_perfbench"


def run_child(binary, workload, variant, seconds, trace, size):
    cmd = [str(binary), "--workload", workload, "--variant", str(variant), "--seconds",
           str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_checks(raw, refs):
    """Compares plan objectives and gated controller counts with the
    reference recorded for this (size, workload, variant)."""
    checks = []
    ref = refs.get(raw["size"], {}).get(raw["workload"], {}).get(str(raw["variant"]))
    if ref is None:
        return [{"name": "reference recorded", "ok": False,
                 "detail": f"no reference for variant {raw['variant']}"}]
    got, want = raw["objectives"], ref["objectives"]
    if len(got) != len(want):
        checks.append({"name": "objective count", "ok": False,
                       "detail": f"{len(got)} plans, reference has {len(want)}"})
    for i, (g, w) in enumerate(zip(got, want)):
        rel = abs(g - w) / max(1.0, abs(w))
        checks.append({"name": f"objective {i} matches reference", "ok": rel <= OBJECTIVE_RTOL,
                       "detail": f"{g!r} vs {w!r} (rel {rel:.2e})"})
    for name, want_value in ref["gated"].items():
        got_value = raw["gated"].get(name, {}).get("value")
        checks.append({"name": f"{name} exact", "ok": got_value == want_value,
                       "detail": f"{got_value} vs {want_value}"})
    return checks


def result_of(raw, refs, trace):
    # raw["failed"] already counts the binary's own failed checks.
    ref_checks = reference_checks(raw, refs)
    checks = raw["checks"] + ref_checks
    failed = raw["failed"] + sum(1 for c in ref_checks if not c["ok"])
    metrics = dict(raw["metrics"])
    if trace:
        metrics.update(raw["counts"])
    return {"correct": failed == 0 and all(c["ok"] for c in checks),
            "attempted": max(1, raw["attempted"]), "failed": failed, "metrics": metrics,
            "checks": checks}


def print_human(workload, raw, result, trace):
    print(f"== {workload} (input variant {raw['variant']}, {raw['size']})")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:38s} {m['value']:>22} {m['unit']}")
    if not trace:  # the counts are per-layer metrics; show them here too
        for name, m in sorted(raw["counts"].items()):
            print(f"  {name:38s} {m['value']:>22} count")
    for name, text in sorted(raw["notes"].items()):
        print(f"  {name:38s} {text}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':38s} {frac:>22} ({result['failed']} of {result['attempted']})")
    for c in result["checks"]:
        if not c["ok"]:
            print(f"  CHECK FAILED: {c['name']}: {c['detail']}")


def record(binary, size, workloads):
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    table = refs.setdefault(size, {})
    for workload in workloads:
        for variant in range(VARIANTS):
            raw = run_child(binary, workload, variant, 0.5, 0, size)
            bad = [c for c in raw["checks"] if not c["ok"]]
            if bad or raw["failed"]:
                raise RuntimeError(f"{workload} variant {variant} fails its own checks: {bad}")
            table.setdefault(workload, {})[str(variant)] = {
                "objectives": raw["objectives"],
                "gated": {k: v["value"] for k, v in raw["gated"].items()}}
            log(f"recorded {size} {workload} variant {variant}:",
                {k: v["value"] for k, v in raw["metrics"].items()})
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: seconds-long inputs for the benchmark's own tests")
    ap.add_argument("--references", type=pathlib.Path, default=REFERENCES)
    ap.add_argument("--record", action="store_true",
                    help="re-record the reference objectives and controller counts")
    args = ap.parse_args()
    try:
        binary = build()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        if args.record:
            record(binary, args.size, names)
            return 0
        refs = json.loads(args.references.read_text())
        results = {}
        for name in names:
            raw = run_child(binary, name, args.seed % VARIANTS, args.seconds, args.trace,
                            args.size)
            results[name] = result_of(raw, refs, args.trace)
            print_human(name, raw, results[name], args.trace)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
        metrics = final["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    line = {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
