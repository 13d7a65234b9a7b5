#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload serve_batch --seed 1 --seconds 45 --trace 0

Run from the repository root. Builds this directory's CMake package
(Release) into .bench_build on first use, runs the benchmark binary, and
prints as the last line of stdout one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. A traced run first runs the
workload untraced with the same seed, then traced, and reports each
end-to-end metric's traced-minus-untraced difference as overhead.<name>.
The line before the result holds the run's metadata; metadata, results and
spans are also written to .bench_results/. Exits non-zero when the build
fails, a served result diverges from the serial reference, or a fit's MSE
is not finite.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_open", "serve_batch", "fit_sweep")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds both benchmark binaries."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "perfbench", "perfbench_trace"],
        check=True, stdout=sys.stderr)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_binary(binary, args, trace_out=None):
    """Runs one benchmark process; returns its parsed final line."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # The program reads tuning knobs from GQA_* variables; none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GQA_")}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{binary.name} exited {proc.returncode} "
                           "without a result")
    return json.loads(lines[-1])


def pick(metrics, spec, what):
    """The metrics BENCHMARK.json names, in its order, with its units."""
    out = {}
    for m in spec:
        if m["name"] not in metrics or metrics[m["name"]]["value"] is None:
            raise RuntimeError(f"{what} metric {m['name']} was not measured")
        value = metrics[m["name"]]["value"]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    results_dir = ROOT / ".bench_results"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"

    try:
        untraced = run_binary(build_dir / "perfbench", args)
        result = untraced
        if args.trace:
            traced = run_binary(build_dir / "perfbench_trace", args,
                                trace_out=results_dir / f"{stem}-spans.json")
            result = traced
            layers = dict(traced["layers"])
            for m in spec["end_to_end"]:
                name = m["name"]
                a = untraced["e2e"].get(name, {}).get("value")
                b = traced["e2e"].get(name, {}).get("value")
                if a is not None and b is not None:
                    layers[f"overhead.{name}"] = {"value": b - a}
            metrics = pick(layers, spec["per_layer"], "per-layer")
        else:
            metrics = pick(untraced["e2e"], spec["end_to_end"], "end-to-end")
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1

    meta = dict(result["meta"])
    meta["git_sha"] = git_sha()
    meta["source_sha256"] = source_digest()
    # Everything the program measured, gated in BENCHMARK.json or not.
    meta["e2e"] = untraced["e2e"]
    if args.trace:
        meta["traced_e2e"] = result["e2e"]
    out = {
        "correct": bool(untraced["correct"] and result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    (results_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({"result": out, "meta": meta}, indent=1) + "\n")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
