"""Benchmark entry point: one workload, one seed, one measured pass.

    python3 perfbench/run.py --workload maryland-d1 --seed 3 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
Set-up time is measured in several fresh processes, then the pass runs in
one more fresh process as a closed loop (one client, one operation in
flight).  Every process gets the OpenBLAS/OMP thread count pinned to
``nproc`` before numpy is imported.  Every operation goes through the
correctness gate, outside its timed region.

With ``--trace 0`` the printed metrics are the end-to-end ones; with
``--trace 1`` untraced operations alternate with operations that record
per-layer spans, and the printed metrics are the layer ones.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 5  # measured probes, after one unmeasured warm-up probe
DEADLINE_S = 170.0  # every run ends within 180 s

# counts a later change may cite: they must repeat exactly between runs
EXACT_COUNTS = (
    "steps",
    "operators.matmul_count",
    "homological.neumann_terms",
    "homological.neumann_fallback_count",
)


class WorkerError(RuntimeError):
    pass


def pinned_env(root: str, threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def call_worker(args, env, root, deadline) -> dict:
    """Run worker.py in a fresh interpreter and parse its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--root", root, *args],
            env=env, cwd=root, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args[:2]} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(
            f"worker {args[:2]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    usable = [q for q in (75, 90, 95, 99) if n * (100 - q) >= 1000]
    if not usable:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return usable[-1], cuts[usable[-1] - 1]


def format_row(name, unit, values):
    med = statistics.median(values)
    tail = tail_percentile(values)
    tail_txt = "-" if tail is None else f"p{tail[0]}={tail[1]:.6g}"
    return f"  {name:<38} {unit:<8} median={med:<14.6g} {tail_txt:<18} n={len(values)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nmloc", "__init__.py")):
        print("perfbench: src/nmloc not found; run from the repository root",
              file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics of the JSON line, with their units
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    env = pinned_env(root, nproc)
    common = ["--workload", wl.name, "--seed", str(args.seed)]

    try:
        probes = [
            call_worker(["--mode", "probe", *common], env, root, deadline)["setup_s"]
            for _ in range(SETUP_PROBES + 1)
        ][1:]
        res = call_worker(
            ["--mode", "pass", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env, root, deadline,
        )
        single = None
        if args.trace and wl.name == "maryland-d1":
            single = call_worker(["--mode", "single", *common],
                                 pinned_env(root, 1), root, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    selftest = res["selftest"]
    if not all(selftest.values()):
        print(f"perfbench: the correctness gate failed its self-test: {selftest}",
              file=sys.stderr)
        return 1

    ops = res["ops"]
    all_ops = ops + res.get("traced_ops", [])
    attempted = len(all_ops)
    failed = sum(1 for o in all_ops if o["failures"])
    env_rec = res["env"]

    print(f"perfbench: workload={wl.name} seed={args.seed} "
          f"frequency={wl.frequency_key(args.seed)} trace={args.trace}")
    print(f"  why: {wl.why}")
    print(f"  loop: closed, 1 client in 1 process; BLAS threads "
          f"{env_rec['blas_threads']} (OPENBLAS_NUM_THREADS="
          f"{env_rec['OPENBLAS_NUM_THREADS']}, nproc {env_rec['nproc']})")
    print(f"  env: python {env_rec['python']}, numpy {env_rec['numpy']}, "
          f"scipy {env_rec['scipy']}, {env_rec['openblas']}")

    untraced = {
        "setup_s": probes,
        "solve_s": [o["solve_s"] for o in ops],
        "certify_s": [o["certify_s"] for o in ops],
        "steps": [o["steps"] for o in ops],
    }
    if "peak_rss_mb" in res:
        untraced["peak_rss_mb"] = [res["peak_rss_mb"]]
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print("  end-to-end (tracing off):")
    for name, values in untraced.items():
        print(format_row(name, e2e_units[name], values))
    print(f"  {'fail_rate':<38} {'ratio':<8} value={failed / attempted:<15.6g} "
          f"({failed} of {attempted} operations)")
    for i, o in enumerate(all_ops):
        for reason in o["failures"][:5]:
            print(f"  gate: operation {i}: {reason}")
    print("  gate self-test: " + "; ".join(
        f"{k}: {'ok' if v else 'BROKEN'}" for k, v in selftest.items()))

    correct = failed == 0
    if not args.trace:
        metrics = {
            name: {"value": statistics.median(untraced[name]), "unit": unit}
            for name, unit in e2e_units.items()
        }
    else:
        from tracing import LAYER_UNITS

        layer, samples = res["layer"], res["layer_samples"]
        traced_certify = statistics.median(o["certify_s"] for o in res["traced_ops"])
        print("  per-layer (traced; per-operation medians unless per step/cell):")
        for name, unit in LAYER_UNITS.items():
            if samples.get(name):
                print(format_row(name, unit, samples[name]))
            elif name in samples:
                print(f"  {name:<38} {unit:<8} not exercised")
        overhead = traced_certify - statistics.median(untraced["certify_s"])
        print(f"  {'trace.overhead_s':<38} {'s':<8} value={overhead:.6g} "
              f"(traced certify_s {traced_certify:.6g} minus untraced)")
        for name in EXACT_COUNTS:
            vals = samples[name]
            same = len(set(vals)) == 1
            correct = correct and same
            print(f"  exact count {name}: {vals} -> "
                  f"{'repeats' if same else 'DOES NOT REPEAT'}")
        if single is not None:
            t1 = single["op"]["solve_s"]
            t2 = statistics.median(untraced["solve_s"])
            print(f"  {'operators.blas_scaling':<38} {'ratio':<8} "
                  f"value={t1 / (nproc * t2):.6g} (1-thread solve {t1:.6g} s / "
                  f"({nproc} x {nproc}-thread solve {t2:.6g} s))")
            # The references hold for the pinned thread count: another count
            # rounds differently, and the highest-s ledger norms of the last
            # steps move by more than defect_resolution().  So this baseline
            # is reported against the gate but not counted in fail_rate.
            drift = single["op"]["failures"]
            print("  1-thread result against the references: "
                  f"{len(drift)} gate findings" + "".join(
                      f"\n    {reason}" for reason in drift[:5]))
        print(f"  spans: {res['trace_csv']}")
        metrics = {
            m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
