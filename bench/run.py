"""qubitchain benchmark: four workloads through the CLI, checked against an oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a shipped config, capped in
length, run by ``qubitchain run`` or ``qubitchain scan`` in a child process
(``bench/launch.py``) with BLAS at one thread.  Rounds of the CLI run are
repeated until S seconds have passed.  Set-up time is taken from every
round and, up to five samples, from set-up probes: launches that exit
where the CLI enters ``run_scenario`` or ``steady_state_scan``.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics (medians over rounds); with ``--trace 1``
rounds alternate untraced and traced, and it carries the per-layer metrics
of the traced rounds plus the tracing overhead.  The outputs of the first
round are checked against ``bench/oracle.py`` after the timed loop; every
later round must reproduce them byte for byte.  The line before the last
records the machine.  Raw per-round figures go to ``bench/results/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy loads, here and in every child

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120.0

# name -> (CLI command, shipped config, overrides).  Every workload runs on
# one thread: with two ensemble threads, wall time follows the host's CPU steal.
WORKLOADS = {
    "noisy_generation": ("run", "correlation_bounds.json", {"t_max": 2.0, "sample_every": 2}),
    "disorder_ensemble": ("run", "generation_disorder.json", {}),
    "long_chain_mps": ("run", "long_chain_n40.json", {"t_max": 1.5}),
    "steady_scan": (
        "scan",
        "steady_scan.json",
        {"chain.n_qubits": 5, "coupling_ratios": [1.5], "gammas": [0.05, 0.1, 0.2]},
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}

# per-layer metric -> (unit, span name, field of the span summary or report)
PER_LAYER = {
    "cli.import_s": ("s", None, "import_s"),
    "cli.config_load_s": ("s", "cli.config_load", "total_s"),
    "chain.hamiltonian_calls": ("count", "chain.hamiltonian", "calls"),
    "chain.hamiltonian_s": ("s", "chain.hamiltonian", "total_s"),
    "harness.eigh_s": ("s", "harness.eigh", "total_s"),
    "harness.self_s": ("s", "harness.run", "self_s"),
    "lindblad.apply_calls": ("count", "lindblad.apply", "calls"),
    "lindblad.apply_s": ("s", "lindblad.apply", "total_s"),
    "lindblad.evolve_calls": ("count", "lindblad.evolve", "calls"),
    "lindblad.evolve_self_s": ("s", "lindblad.evolve", "self_s"),
    "lindblad.positivity_check_s": ("s", "lindblad.positivity_check", "total_s"),
    "lindblad.snapshot_mb": ("MB", None, "snapshot_bytes_max"),
    "lindblad.generator_builds": ("count", "lindblad.generator_build", "calls"),
    "lindblad.generator_build_s": ("s", "lindblad.generator_build", "total_s"),
    "lindblad.steady_state_calls": ("count", "lindblad.steady_state", "calls"),
    "lindblad.steady_state_s": ("s", "lindblad.steady_state", "total_s"),
    "lindblad.superoperator_s": ("s", "lindblad.superoperator", "total_s"),
    "lindblad.steady_sim_time": ("1/E_C", None, "steady_sim_time"),
    "negativity.reduce_calls": ("count", "negativity.reduce", "calls"),
    "negativity.reduce_s": ("s", "negativity.reduce", "total_s"),
    "negativity.reduce_statevector_calls": ("count", "negativity.reduce_statevector", "calls"),
    "negativity.reduce_statevector_s": ("s", "negativity.reduce_statevector", "total_s"),
    "negativity.log_negativity_calls": ("count", "negativity.log_negativity", "calls"),
    "negativity.log_negativity_s": ("s", "negativity.log_negativity", "total_s"),
    "witness.correlation_matrix_calls": ("count", "witness.correlation_matrix", "calls"),
    "witness.correlation_matrix_s": ("s", "witness.correlation_matrix", "total_s"),
    "witness.bound_s": ("s", "witness.bound", "total_s"),
    "mps.step_calls": ("count", "mps.step", "calls"),
    "mps.step_s": ("s", "mps.step", "total_s"),
    "mps.svd_calls": ("count", "mps.svd", "calls"),
    "mps.svd_s": ("s", "mps.svd", "total_s"),
    "mps.reduced_pair_calls": ("count", "mps.reduced_pair", "calls"),
    "mps.reduced_pair_s": ("s", "mps.reduced_pair", "total_s"),
    "mps.engine_build_s": ("s", "mps.engine_build", "total_s"),
    "mps.max_bond_dim": ("count", None, "max_bond_dim"),
    "outputs.emit_s": ("s", "outputs.emit", "total_s"),
    "outputs.bytes_written": ("bytes", None, "bytes_written"),
}

# Counts each workload relies on being zero: the layer it bypasses stays out.
ZERO_ON = {
    "noisy_generation": ("mps.step_calls", "lindblad.steady_state_calls"),
    "disorder_ensemble": ("lindblad.apply_calls", "mps.step_calls", "lindblad.steady_state_calls"),
    "long_chain_mps": ("lindblad.apply_calls", "lindblad.steady_state_calls"),
    "steady_scan": ("mps.step_calls",),
}


def workload_config(name: str, seed: int) -> tuple[str, dict]:
    command, base, overrides = WORKLOADS[name]
    with open(ROOT / "configs" / base) as fh:
        cfg = json.load(fh)
    for key, value in overrides.items():
        node = cfg
        *parents, leaf = key.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
    cfg["seed"] = seed
    return command, cfg


def read_steal_s() -> float:
    """Steal time accrued by all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def machine_record() -> dict:
    import numpy
    import scipy

    cpu_model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
    }


def tree_digest(path: Path) -> dict[str, str]:
    return {
        str(f.relative_to(path)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.rglob("*"))
        if f.is_file()
    }


class Launcher:
    """Starts CLI processes and records wall, set-up, rusage and reports."""

    def __init__(self, work: Path, command: str, config_path: Path):
        self.work = work
        self.command = command
        self.config_path = config_path
        # A fixed hash seed keeps dict and set layouts, and so timings, alike across runs.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.count = 0
        self.failed = 0
        self.blas_threads: set[int] = set()

    def launch(self, *, trace=False, setup_only=False, capture: Path | None = None) -> dict | None:
        k = self.count
        self.count += 1
        out = self.work / f"out{k}"
        report = self.work / f"report{k}.json"
        args = [sys.executable, str(BENCH / "launch.py"), "--report", str(report)]
        args += ["--trace"] if trace else []
        args += ["--setup-only"] if setup_only else []
        args += ["--capture", str(capture)] if capture else []
        args += ["--", self.command, "--config", str(self.config_path), "--out", str(out)]
        with open(self.work / f"stdout{k}.txt", "wb") as so, open(self.work / f"stderr{k}.txt", "wb") as se:
            t0 = time.monotonic()
            proc = subprocess.Popen(args, stdout=so, stderr=se, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not report.exists():
            self.failed += 1
            return None
        with open(report) as fh:
            rep = json.load(fh)
        self.blas_threads.update(rep["blas_threads"].values())
        rec = {
            "wall_s": t1 - t0,
            "setup_s": rep["entry_monotonic"] - t0,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "report": rep,
            "out": out,
            "stderr_lines": len((self.work / f"stderr{k}.txt").read_bytes().splitlines()),
        }
        return rec


def layer_metrics(rec: dict) -> dict[str, float]:
    rep = rec["report"]
    spans = rep["spans"]
    extra = {
        "import_s": rep["import_s"],
        "snapshot_bytes_max": rep["snapshot_bytes_max"] / 2**20,
        "steady_sim_time": rep["steady_sim_time"],
        "max_bond_dim": rep["max_bond_dim"],
        "bytes_written": sum(f.stat().st_size for f in rec["out"].rglob("*") if f.is_file()),
    }
    out = {}
    for metric, (_, span, field) in PER_LAYER.items():
        if span is None:
            out[metric] = extra[field]
        else:
            out[metric] = spans.get(span, {}).get(field, 0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (ROOT / "src" / "qubitchain" / "cli.py", ROOT / "configs") if not p.exists()]
    if missing:
        print(f"error: not a qubitchain checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    command, cfg = workload_config(args.workload, args.seed)
    work = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg, indent=1) + "\n")
    launcher = Launcher(work, command, config_path)
    capture = work / "members.npy" if args.workload == "disorder_ensemble" else None

    steal0 = read_steal_s()
    launcher.launch(setup_only=True)  # warm-up: page cache and bytecode
    rounds: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        rec = launcher.launch(capture=None if rounds else capture)
        if rec is None:
            break
        rounds.append(rec)
        if args.trace:
            rec = launcher.launch(trace=True)
            if rec is None:
                break
            traced.append(rec)
        if time.monotonic() - start >= args.seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while rounds and not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        probe = launcher.launch(setup_only=True)
        if probe is None:
            break
        setups.append(probe["setup_s"])
    measured_s = time.monotonic() - start
    steal_s = read_steal_s() - steal0

    sys.path.insert(0, str(ROOT / "src"))
    import checks

    failures: list[str] = []
    if not rounds:
        failures.append("no CLI round completed")
    else:
        reference = tree_digest(rounds[0]["out"])
        for k, rec in enumerate(rounds[1:] + traced, start=1):
            if tree_digest(rec["out"]) != reference:
                failures.append(f"round {k} outputs differ from round 0")
        failures += checks.CHECKS[args.workload](cfg, rounds[0]["out"], capture)

    machine = machine_record()
    machine.update(
        blas_threads_requested=BLAS_THREADS,
        blas_threads_reported=sorted(launcher.blas_threads),
        steal_s=steal_s,
        measured_s=measured_s,
    )

    if args.trace:
        per_round = [layer_metrics(r) for r in traced]
        values = {m: statistics.median(r[m] for r in per_round) for m in PER_LAYER} if per_round else {}
        if traced:
            values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in rounds
            )
        units = {m: u for m, (u, _, _) in PER_LAYER.items()}
        units["trace.overhead_s"] = "s"
        isolation = [m for m in ZERO_ON.get(args.workload, ()) if values.get(m, 0) != 0]
    else:
        isolation = []
        values = {m: statistics.median(r[m] for r in rounds) for m in END_TO_END if m != "setup_s"} if rounds else {}
        if setups:
            values["setup_s"] = statistics.median(setups)
        units = END_TO_END
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units if m in values}

    result = {
        "correct": not failures,
        "attempted": launcher.count,
        "failed": launcher.failed,
        "metrics": metrics,
    }
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "failures": failures,
        "rounds": [{k: v for k, v in r.items() if k not in ("out", "report")} for r in rounds],
        "traced_rounds": [{k: v for k, v in r.items() if k not in ("out", "report")} for r in traced],
        "setup_samples": setups,
        "isolation_violations": isolation,
        "result": result,
    }
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1) + "\n"
    )
    shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    for m in isolation:
        print(f"isolation broken: {m} is not 0 on {args.workload}", file=sys.stderr)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
