"""Outside-in tracing: spans recorded around the public functions of nmloc.

Each function is wrapped at the name its caller looks it up by.
``nmloc.iteration`` imports ``solve_generator`` by name, so the span sits
on ``nmloc.iteration.solve_generator``; wrapping
``nmloc.homological.solve_generator`` would never fire.  Operator methods
are wrapped on the class, which is where ``@`` and ``.sobolev_norm`` look
them up.  Nothing in the program changes; ``uninstall`` restores every
attribute.

A span is ``[name, start, end, parent, op, note]``; spans stay in memory
and are written out once, after the pass.
"""

from __future__ import annotations

import functools
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if note is not None:
                tracer.spans[idx][5] = note(args, out)
            return out

        return traced

    # -- installation ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, note=None):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, note))

    def install(self, nm, cli=None):
        """Wrap every layer of ``nm``; ``cli`` is ``nmloc.cli`` when in use."""
        it = nm.iteration
        L = nm.LatticeOperator
        self.patch(nm.LatticeBox, "__init__", "box.LatticeBox")
        self.patch(nm.LatticeBox, "_build_pair_tables", "box.pair_tables")
        self.patch(it, "distal_gamma_box", "algebra.distal_gamma_box")
        self.patch(L, "__matmul__", "operators.matmul",
                   note=lambda args, out: args[0].box.n_sites)
        self.patch(L, "sobolev_norm", "operators.sobolev_norm")
        self.patch(L, "diag_sups", "operators.diag_sups")
        self.patch(L, "operator_norm", "operators.operator_norm")
        self.patch(L, "smooth", "operators.smooth")
        self.patch(it, "solve_generator", "homological.solve_generator")
        self.patch(it, "solve_diagonal_correction",
                   "homological.solve_diagonal_correction")
        self.patch(it, "neumann_invert", "homological.neumann_invert",
                   note=lambda args, out: (out.neumann_terms or 0,
                                           out.condition_number is not None))
        self.patch(it, "initial_step", "iteration.initial_step")
        self.patch(it, "iterate_step", "iteration.iterate_step")
        self.patch(it, "unitarize", "iteration.unitarize")
        # the library workloads call through the package namespace; the cli
        # calls its own imported names and the localization module
        mod, loc = (nm, nm) if cli is None else (cli, cli.localization)
        self.patch(mod, "build_potential", "models.build_potential")
        self.patch(mod, "build_hopping", "models.build_hopping")
        self.patch(mod, "run", "iteration.run")
        self.patch(mod, "ledger_to_csv", "iteration.ledger_to_csv")
        self.patch(loc, "eigenfunctions", "localization.eigenfunctions")
        self.patch(loc, "completeness_check", "localization.completeness_check")
        self.patch(loc, "spectrum_compare", "localization.spectrum_compare")
        if cli is not None:
            self.patch(cli, "cmd_run", "cli.cmd_run")
            validate = self.wrap(cli.jsonschema.validate, "cli.jsonschema.validate")
            self._restore.append((cli, "jsonschema", cli.jsonschema))
            cli.jsonschema = _ValidateProxy(cli.jsonschema, validate)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write_csv(self, path):
        selfs = self.self_times()
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("op,id,parent,name,start_s,end_s,self_s,note\n")
            for idx, (name, start, end, parent, op, note) in enumerate(self.spans):
                note = "" if note is None else str(note).replace(",", ";")
                fh.write(f"{op},{idx},{parent},{name},{start - t0!r},"
                         f"{end - t0!r},{selfs[idx]!r},{note}\n")


class _ValidateProxy:
    """Stands in for the ``jsonschema`` module inside ``nmloc.cli``."""

    def __init__(self, module, validate):
        self._module = module
        self.validate = validate

    def __getattr__(self, name):
        return getattr(self._module, name)


# -- per-layer metrics ----------------------------------------------------------------

# name -> unit for every layer metric the traced run reports
LAYER_UNITS = {
    "box.build_s": "s",
    "models.build_s": "s",
    "algebra.distal_gamma_s": "s",
    "operators.matmul_count": "count",
    "operators.matmul_s": "s",
    "operators.matmul_gflop": "GFLOP",
    "operators.matmul_gb": "GB",
    "operators.matmul_gflops": "GFLOP/s",
    "operators.norm_count": "count",
    "operators.norm_s": "s",
    "operators.opnorm_count": "count",
    "operators.opnorm_s": "s",
    "operators.smooth_s": "s",
    "homological.generator_count": "count",
    "homological.generator_s": "s",
    "homological.diag_correction_count": "count",
    "homological.diag_correction_s": "s",
    "homological.neumann_s": "s",
    "homological.neumann_terms": "count",
    "homological.neumann_fallback_count": "count",
    "iteration.initial_step_s": "s",
    "iteration.step_s": "s",
    "iteration.step_self_s": "s",
    "iteration.run_self_s": "s",
    "iteration.unitarize_s": "s",
    "iteration.ledger_csv_s": "s",
    "localization.eigenfunctions_s": "s",
    "localization.completeness_s": "s",
    "localization.spectrum_s": "s",
    "cli.schema_s": "s",
    "cli.cell_s": "s",
    "cli.cell_self_s": "s",
    "cli.bytes_written": "bytes",  # counted from the sweep's output directory
}

# per-step and per-cell metrics are medians over the steps or cells of all
# traced operations; every other metric is a per-operation total, reported
# as the median over operations
_SAMPLED = {
    "iteration.step_s": ("iteration.iterate_step", False),
    "iteration.step_self_s": ("iteration.iterate_step", True),
    "cli.cell_s": ("cli.cmd_run", False),
    "cli.cell_self_s": ("cli.cmd_run", True),
}


def op_totals(spans, selfs, idxs) -> dict:
    """Per-operation layer totals over the spans ``idxs`` of one operation."""
    names: dict[str, list[int]] = {}
    for i in idxs:
        names.setdefault(spans[i][0], []).append(i)

    def outer(*group):
        # time covered by spans of the group, counting nested ones once
        group = set(group)
        total = 0.0
        for name in group:
            for i in names.get(name, ()):
                p = spans[i][3]
                while p >= 0 and spans[p][0] not in group:
                    p = spans[p][3]
                if p < 0:
                    total += spans[i][2] - spans[i][1]
        return total

    def self_sum(*group):
        return sum(selfs[i] for name in group for i in names.get(name, ()))

    def count(name):
        return len(names.get(name, ()))

    sizes = [spans[i][5] for i in names.get("operators.matmul", ())]
    neumann = [spans[i][5] for i in names.get("homological.neumann_invert", ())]
    matmul_s = outer("operators.matmul")
    gflop = sum(8.0 * n**3 for n in sizes) / 1e9
    return {
        "box.build_s": outer("box.LatticeBox", "box.pair_tables"),
        "models.build_s": self_sum("models.build_potential", "models.build_hopping"),
        "algebra.distal_gamma_s": outer("algebra.distal_gamma_box"),
        "operators.matmul_count": count("operators.matmul"),
        "operators.matmul_s": matmul_s,
        "operators.matmul_gflop": gflop,
        "operators.matmul_gb": sum(48.0 * n**2 for n in sizes) / 1e9,
        "operators.matmul_gflops": gflop / matmul_s if matmul_s > 0 else 0.0,
        "operators.norm_count": count("operators.sobolev_norm"),
        "operators.norm_s": outer("operators.sobolev_norm", "operators.diag_sups"),
        "operators.opnorm_count": count("operators.operator_norm"),
        "operators.opnorm_s": outer("operators.operator_norm"),
        "operators.smooth_s": outer("operators.smooth"),
        "homological.generator_count": count("homological.solve_generator"),
        "homological.generator_s": outer("homological.solve_generator"),
        "homological.diag_correction_count":
            count("homological.solve_diagonal_correction"),
        "homological.diag_correction_s":
            outer("homological.solve_diagonal_correction"),
        "homological.neumann_s": outer("homological.neumann_invert"),
        "homological.neumann_terms": sum(t for t, _ in neumann),
        "homological.neumann_fallback_count": sum(1 for _, f in neumann if f),
        "iteration.initial_step_s": outer("iteration.initial_step"),
        "iteration.run_self_s": self_sum("iteration.run"),
        "iteration.unitarize_s": outer("iteration.unitarize"),
        "iteration.ledger_csv_s": outer("iteration.ledger_to_csv"),
        "localization.eigenfunctions_s": outer("localization.eigenfunctions"),
        "localization.completeness_s": outer("localization.completeness_check"),
        "localization.spectrum_s": outer("localization.spectrum_compare"),
        "cli.schema_s": outer("cli.jsonschema.validate"),
    }


def layer_metrics(tracer: Tracer, ops) -> tuple[dict, dict]:
    """(metric -> median value, metric -> samples) over the traced ``ops``."""
    spans = tracer.spans
    selfs = tracer.self_times()
    per_op = {op: [] for op in ops}
    for i, s in enumerate(spans):
        if s[4] in per_op:
            per_op[s[4]].append(i)
    samples: dict[str, list[float]] = {}
    for idxs in per_op.values():
        for name, value in op_totals(spans, selfs, idxs).items():
            samples.setdefault(name, []).append(value)
    for metric, (span_name, use_self) in _SAMPLED.items():
        samples[metric] = [
            selfs[i] if use_self else spans[i][2] - spans[i][1]
            for i in range(len(spans))
            if spans[i][0] == span_name and spans[i][4] in per_op
        ]
    medians = {
        name: (statistics.median(vals) if vals else 0.0)
        for name, vals in samples.items()
    }
    return medians, samples
