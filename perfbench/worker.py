"""One benchmark process: a set-up probe, a measured pass, or one operation.

``run.py`` starts this script in a fresh interpreter with the BLAS thread
count already in the environment, so numpy picks it up at import.  The
last line of standard output is a JSON object for ``run.py``.

Modes:

* ``--mode probe``  import nmloc and build the inputs once; report set-up time
* ``--mode pass``   closed loop of operations for ``--seconds``, gated; with
  ``--trace 1`` every other operation runs with spans recorded
* ``--mode single`` one untraced operation (the single-thread baseline)
* ``--mode record`` rewrite ``refs/<workload>.json`` from the current code
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings

import gate
from workloads import SWEEP_AXES, WORKLOADS

# run() takes this fallback on every flagship step; filtered as in the
# package's own test settings
warnings.filterwarnings(
    "ignore", message="diagonal-correction contraction condition violated",
    category=RuntimeWarning,
)


def import_nmloc(root: str, via_cli: bool):
    import nmloc

    expected = os.path.realpath(os.path.join(root, "src", "nmloc"))
    found = os.path.dirname(os.path.realpath(nmloc.__file__))
    if found != expected:
        raise SystemExit(f"nmloc imported from {found}, expected {expected}")
    if via_cli:
        import nmloc.cli  # noqa: F401  (binds nmloc.cli)
    return nmloc


def build(nm, wl, seed):
    box = nm.LatticeBox(wl.dimension, wl.radius, wl.interior)
    D = nm.build_potential(nm.PotentialSpec(wl.potential, omega=wl.omega(seed)), box)
    T = nm.build_hopping(nm.HoppingSpec(s_exponent=wl.s, epsilon=wl.eps), box)
    return T, D, nm.SchemeParams(**wl.params_kwargs())


def write_base_config(wl, seed, path):
    with open(path, "w") as fh:
        json.dump(wl.base_config(seed), fh)


# -- operations --------------------------------------------------------------------


def library_op(nm, wl, seed):
    """run plus the full certificate; returns timings and the gate summary."""
    T, D, params = build(nm, wl, seed)
    t0 = time.perf_counter()
    result = nm.run(T, D, params)
    t1 = time.perf_counter()
    reports = nm.eigenfunctions(result)
    min_sv, gram_off = nm.completeness_check(result)
    spectrum = nm.spectrum_compare(result) if wl.symmetric else None
    nm.ledger_to_csv(result.ledger)
    residual_bound = result.qplus.operator_norm() * result.final_residual.operator_norm()
    resolution = result.defect_resolution()
    final_r0 = result.final_residual.sobolev_norm(0.0)
    t2 = time.perf_counter()
    interior = [r for r in reports if r.interior]
    summary = {
        "converged": bool(result.converged),
        "steps": int(result.steps),
        "stop_tol": result.params.stop_tol,
        "final_r0": final_r0,
        "master_residual": result.master_residual,
        "defect_resolution": resolution,
        "ledger": [dict(row.norms) for row in result.ledger],
        "min_envelope_margin": min(r.decay_envelope_margin for r in interior),
        "max_eigen_residual": max(r.eigen_residual for r in interior),
        "residual_bound": residual_bound,
        "min_singular_value": min_sv,
        "gram_offdiag": gram_off,
        "spectrum_distance": spectrum,
        "unitarity_defect": result.unitarity_defect,
    }
    return {"solve_s": t1 - t0, "certify_s": t2 - t0, "steps": summary["steps"]}, summary


class SolveClock:
    """Accumulates wall time inside ``nmloc.cli.run`` (the sweep's solves)."""

    def __init__(self, cli):
        self.total = 0.0
        inner = cli.run

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.total += time.perf_counter() - t0

        cli.run = timed


def sweep_argv(cfg_path, out_dir):
    argv = ["sweep", "--config", cfg_path]
    for key, values in SWEEP_AXES:
        argv += ["--override", f"{key}={values}"]
    return argv + ["--out-dir", out_dir]


def cli_op(nm, cfg_path, out_dir, clock):
    """One in-process ``nmloc sweep``; returns timings and the parsed outputs."""
    solved_before = clock.total
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = nm.cli.main(sweep_argv(cfg_path, out_dir))
    t1 = time.perf_counter()
    sweep = gate.read_sweep(out_dir)
    written = sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_dir)
        for f in files
    )
    shutil.rmtree(out_dir)
    timing = {
        "solve_s": clock.total - solved_before,
        "certify_s": t1 - t0,
        "steps": sum(row["steps"] for row in sweep["rows"].values()),
        "bytes_written": written,
    }
    return timing, (code, sweep)


class Runner:
    """Runs gated operations of one workload and seed in this process."""

    def __init__(self, root, wl, seed, refs=None):
        self.wl = wl
        self.seed = seed
        self.ref = None if refs is None else refs[wl.frequency_key(seed)]
        self.nm = import_nmloc(root, wl.via_cli)
        self.scratch = os.path.join(root, ".bench_out")
        os.makedirs(self.scratch, exist_ok=True)
        self.tag = f"{wl.name}-{seed}-{os.getpid()}"
        if wl.via_cli:
            self.cfg_path = os.path.join(self.scratch, f"{self.tag}.json")
            write_base_config(wl, seed, self.cfg_path)
            self.clock = SolveClock(self.nm.cli)
        self.count = 0
        self.selftest = None

    def op(self):
        """One operation, then the gate; the gate is outside the timings."""
        self.count += 1
        if self.wl.via_cli:
            out_dir = os.path.join(self.scratch, f"{self.tag}-{self.count}")
            timing, (code, sweep) = cli_op(self.nm, self.cfg_path, out_dir, self.clock)
            failures = gate.check_cli(code, sweep, self.ref)
            if self.selftest is None:
                self.selftest = gate.selftest_cli(code, sweep, self.ref)
        else:
            timing, summary = library_op(self.nm, self.wl, self.seed)
            failures = gate.check_library(summary, self.ref, self.wl.symmetric)
            if self.selftest is None:
                self.selftest = gate.selftest_library(summary, self.ref,
                                                      self.wl.symmetric)
        timing["failures"] = failures
        return timing

    def loop(self, budget, min_ops, op=None):
        """Closed loop: the next operation starts when the last one ends.

        Stops before an operation that would, at the median duration so
        far, end past ``budget`` seconds.
        """
        op = op or self.op
        ops = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            ops.append(op())
            ops[-1]["wall_s"] = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            typical = statistics.median(o["wall_s"] for o in ops)
            if len(ops) >= min_ops and elapsed + typical > budget:
                return ops

    def close(self):
        if self.wl.via_cli and os.path.exists(self.cfg_path):
            os.remove(self.cfg_path)


# -- environment ---------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "openblas": None,
        "blas_threads": None,
    }
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        env["openblas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        pass
    # numpy wheels bundle OpenBLAS with a symbol prefix; ask it directly
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            threads = lib.scipy_openblas_get_num_threads64_
            config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        threads.restype = ctypes.c_int
        config.restype = ctypes.c_char_p
        env["blas_threads"] = int(threads())
        env["openblas"] = config().decode()
        break
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- modes ---------------------------------------------------------------------------


def mode_probe(root, wl, seed):
    cfg_path = None
    if wl.via_cli:
        cfg_path = os.path.join(root, ".bench_out", f"probe-{os.getpid()}.json")
        os.makedirs(os.path.dirname(cfg_path), exist_ok=True)
        write_base_config(wl, seed, cfg_path)
    t0 = time.perf_counter()
    nm = import_nmloc(root, wl.via_cli)
    if wl.via_cli:
        nm.cli.load_config(cfg_path)
    else:
        build(nm, wl, seed)
    elapsed = time.perf_counter() - t0
    if cfg_path:
        os.remove(cfg_path)
    return {"setup_s": elapsed}


def mode_pass(root, wl, seed, seconds, trace):
    runner = Runner(root, wl, seed, gate.load_refs(wl.name))
    out = {"env": environment()}
    if not trace:
        out["ops"] = runner.loop(seconds, min_ops=1)
        out["peak_rss_mb"] = peak_rss_mb()
    else:
        import tracing

        # untraced and traced operations alternate, so drift over the pass
        # does not bias the tracing overhead
        tracer = tracing.Tracer()
        plain, traced = [], []

        def alternate():
            if len(plain) == len(traced):
                plain.append(runner.op())
                return plain[-1]
            tracer.op = len(traced)
            tracer.install(runner.nm, runner.nm.cli if wl.via_cli else None)
            root_span = tracer.begin("bench.op")
            try:
                traced.append(runner.op())
            finally:
                tracer.end(root_span)
                tracer.uninstall()
            return traced[-1]

        runner.loop(seconds, min_ops=4, op=alternate)
        out["ops"] = plain
        medians, samples = tracing.layer_metrics(tracer, range(len(traced)))
        if wl.via_cli:
            samples["cli.bytes_written"] = [o["bytes_written"] for o in traced]
            medians["cli.bytes_written"] = statistics.median(
                samples["cli.bytes_written"])
        samples["steps"] = [o["steps"] for o in traced]
        path = os.path.join(runner.scratch, f"trace-{wl.name}-seed{seed}.csv")
        tracer.write_csv(path)
        out.update(traced_ops=traced, layer=medians, layer_samples=samples,
                   trace_csv=os.path.relpath(path, root))
    out["selftest"] = runner.selftest
    runner.close()
    return out


def mode_single(root, wl, seed):
    runner = Runner(root, wl, seed, gate.load_refs(wl.name))
    op = runner.op()
    runner.close()
    return {"op": op}


def mode_record(root, wl):
    refs = {}
    for seed in range(len(wl.frequencies)):
        runner = Runner(root, wl, seed)
        if wl.via_cli:
            out_dir = os.path.join(runner.scratch, f"record-{runner.tag}")
            _, (code, sweep) = cli_op(runner.nm, runner.cfg_path, out_dir, runner.clock)
            if code != 0:
                raise SystemExit(f"{wl.name} seed {seed}: sweep exit code {code}")
            refs[wl.frequency_key(seed)] = {
                "cells": {c: r["steps"] for c, r in sorted(sweep["rows"].items())}
            }
        else:
            _, summary = library_op(runner.nm, wl, seed)
            refs[wl.frequency_key(seed)] = {
                "steps": summary["steps"], "ledger": summary["ledger"]
            }
        runner.close()
    path = os.path.join(gate.REF_DIR, f"{wl.name}.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return {"recorded": os.path.relpath(path, root)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("probe", "pass", "single", "record"),
                    required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    root = os.path.abspath(args.root)
    if args.mode == "probe":
        out = mode_probe(root, wl, args.seed)
    elif args.mode == "pass":
        out = mode_pass(root, wl, args.seed, args.seconds, bool(args.trace))
    elif args.mode == "single":
        out = mode_single(root, wl, args.seed)
    else:
        out = mode_record(root, wl)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
