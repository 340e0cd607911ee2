"""Run the qubitchain CLI in this process, optionally traced, and write a report.

    python3 bench/launch.py --report R.json [--trace] [--setup-only]
                            [--capture C.npy] -- <qubitchain CLI arguments>

The report holds the monotonic-clock instant at which the CLI entered
``run_scenario`` or ``steady_state_scan`` (the end of set-up), the import
time of ``qubitchain.cli``, the BLAS thread count, and with ``--trace`` the
per-layer span totals.  ``--setup-only`` exits at that entry instant.
``--capture`` saves the per-member E_N series of the first tracked pair,
which the CLI does not write for ensembles, right after ``run_scenario``
returns.

Spans are recorded here, around the calls into each module's public
functions, by replacing those functions in every loaded ``qubitchain``
module that refers to them.  Steps without a public function of their own
are timed at the numpy call their module makes: ``eigh`` called from
``qubitchain.harness`` (eigendecomposition of H), ``eigvalsh`` called from
``qubitchain.lindblad`` (the per-snapshot positivity check) and ``svd``
called from ``qubitchain.mps`` (the bond-gate SVD).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time

_START = time.monotonic()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Tracer:
    """In-memory spans [name, start, end, parent span] and derived counters.

    Spans nest on one stack, so calls must come from one thread; every
    workload runs its ensemble on one thread.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.snapshot_bytes_max = 0
        self.steady_sim_time = 0.0
        self.max_bond_dim = 0

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else None]
            spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def wrap_caller(self, caller: str, name: str, fn):
        """Span the numpy call `fn` as `name` when the module `caller` makes it."""
        traced = self.wrap(name, fn)

        def dispatch(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == caller:
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return dispatch

    def summary(self) -> dict:
        children: dict[int, list] = {}
        for rec in self.spans:
            if rec[3] is not None:
                children.setdefault(id(rec[3]), []).append(rec)
        out: dict[str, dict] = {}
        for rec in self.spans:
            name, t0, t1 = rec[0], rec[1], rec[2]
            covered, cursor = 0.0, t0
            for c in sorted(children.get(id(rec), ()), key=lambda r: r[1]):
                lo, hi = max(c[1], cursor), min(c[2], t1)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - covered
        return out


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "qubitchain" or name.startswith("qubitchain."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install_tracer(tracer: Tracer) -> None:
    import numpy as np
    import scipy.linalg

    import qubitchain.chain as chain
    import qubitchain.cli as cli
    import qubitchain.harness as harness
    import qubitchain.lindblad as lindblad
    import qubitchain.mps as mps
    import qubitchain.negativity as negativity
    import qubitchain.outputs as outputs
    import qubitchain.witness as witness

    def on_evolve(traj):
        tracer.snapshot_bytes_max = max(tracer.snapshot_bytes_max, sum(s.nbytes for s in traj.states))

    def on_steady(res):
        tracer.steady_sim_time += float(res.time_reached)

    def on_step(state):
        tracer.max_bond_dim = max(tracer.max_bond_dim, max(state.bond_dims(), default=1))

    functions = [
        (cli._load_json, "cli.config_load", None),
        (chain.build_hamiltonian_eigen, "chain.hamiltonian", None),
        (chain.build_hamiltonian_lab, "chain.hamiltonian", None),
        (harness.run_scenario, "harness.run", None),
        (harness.steady_state_scan, "harness.run", None),
        (lindblad.evolve, "lindblad.evolve", on_evolve),
        (lindblad.steady_state, "lindblad.steady_state", on_steady),
        (negativity.reduce, "negativity.reduce", None),
        (negativity.reduce_statevector, "negativity.reduce_statevector", None),
        (negativity.log_negativity, "negativity.log_negativity", None),
        (witness.correlation_matrix, "witness.correlation_matrix", None),
        (witness.correlation_matrix_from_pair, "witness.correlation_matrix", None),
        (witness.bound_c1, "witness.bound", None),
        (witness.bound_c2, "witness.bound", None),
        (witness.bound_c2_optimized, "witness.bound", None),
        (witness.frozen_axes_bound, "witness.bound", None),
        (mps.reduced_pair_dm, "mps.reduced_pair", None),
        (outputs.emit_outputs, "outputs.emit", None),
        (outputs.emit_scan_outputs, "outputs.emit", None),
    ]
    for fn, name, after in functions:
        _replace_everywhere(fn, tracer.wrap(name, fn, after))

    methods = [
        (lindblad.LindbladGenerator, "__init__", "lindblad.generator_build", None),
        (lindblad.LindbladGenerator, "apply", "lindblad.apply", None),
        (lindblad.LindbladGenerator, "superoperator", "lindblad.superoperator", None),
        (mps.MixedTebdEngine, "__init__", "mps.engine_build", None),
        (mps.MixedTebdEngine, "step", "mps.step", on_step),
    ]
    for cls, attr, name, after in methods:
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], after))
    for cls in (harness.ScenarioConfig, harness.ScanConfig):
        setattr(cls, "from_dict", classmethod(tracer.wrap("cli.config_load", vars(cls)["from_dict"].__func__)))

    np.linalg.eigh = tracer.wrap_caller("qubitchain.harness", "harness.eigh", np.linalg.eigh)
    np.linalg.eigvalsh = tracer.wrap_caller("qubitchain.lindblad", "lindblad.positivity_check", np.linalg.eigvalsh)
    np.linalg.svd = tracer.wrap_caller("qubitchain.mps", "mps.svd", np.linalg.svd)
    scipy.linalg.svd = tracer.wrap_caller("qubitchain.mps", "mps.svd", scipy.linalg.svd)


def blas_threads() -> dict:
    """Thread count reported by every loaded OpenBLAS library."""
    out = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out[os.path.basename(path)] = int(getter())
                break
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--capture")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    import qubitchain.cli as cli

    report = {"import_s": time.perf_counter() - t0, "start_monotonic": _START}
    src = os.path.join(ROOT, "src", "qubitchain")
    if os.path.dirname(os.path.abspath(cli.__file__)) != src:
        print(f"qubitchain imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    def write_report():
        report["blas_threads"] = blas_threads()
        with open(args.report, "w") as fh:
            json.dump(report, fh)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_tracer(tracer)

    def mark_entry(fn):
        def entered(*a, **k):
            report["entry_monotonic"] = time.monotonic()
            if args.setup_only:
                write_report()
                sys.stdout.flush()
                os._exit(0)
            result = fn(*a, **k)
            if args.capture:
                import numpy as np

                pair = result.config.observables.pairs[0]
                np.save(args.capture, result.member_series(pair, "e_n"))
            return result

        return entered

    cli.run_scenario = mark_entry(cli.run_scenario)
    cli.steady_state_scan = mark_entry(cli.steady_state_scan)
    rc = cli.main(cli_args)
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["snapshot_bytes_max"] = tracer.snapshot_bytes_max
        report["steady_sim_time"] = tracer.steady_sim_time
        report["max_bond_dim"] = tracer.max_bond_dim
    write_report()
    return rc


if __name__ == "__main__":
    sys.exit(main())
