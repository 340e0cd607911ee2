"""The benchmark's tracer finds every hook it patches in the package.

``bench/launch.py`` looks its spans up by name: methods with
``vars(cls)[attr]`` (so they must be defined on the class itself) and
functions by attribute and then by identity in every loaded module.  A
rename fails every traced launch; these tests fail first.  The same holds
for the names the benchmark scripts import from the package, some of them
only inside the function of one workload's check.
"""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_setup_only_launch_exits_cleanly(tmp_path):
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "launch.py"), "--report", str(report), "--trace", "--setup-only", "--",
         "scan", "--config", str(ROOT / "configs" / "steady_scan.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "entry_monotonic" in json.loads(report.read_text())


def test_traced_mps_run_reports_step_and_svd_spans(tmp_path):
    # The SVD span wraps np.linalg.svd only when qubitchain.mps calls it.
    # Two steps per sample make the step hook take a multi-step call.
    cfg = json.loads((ROOT / "configs" / "long_chain_mps.json").read_text())
    cfg["chain"]["n_qubits"] = 6
    cfg["t_max"] = 0.2
    cfg["dt"] = 0.1
    cfg["sample_every"] = 2
    cfg["observables"]["pairs"] = [[1, 2]]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "launch.py"), "--report", str(report), "--trace", "--",
         "run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(report.read_text())
    for name in ("mps.step", "mps.svd"):
        assert traced["spans"].get(name, {}).get("calls", 0) > 0, name
    assert traced["max_bond_dim"] > 1


def test_steady_result_keeps_the_field_the_tracer_reads():
    # Read by the tracer's callback once a traced steady_state returns, so a
    # setup-only launch does not reach it.
    from qubitchain.lindblad import SteadyStateResult

    assert "time_reached" in {f.name for f in dataclasses.fields(SteadyStateResult)}


def test_bench_imports_from_the_package_resolve():
    imported = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qubitchain":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported, "no package imports found under bench/"
    missing = [entry for entry in imported if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert not missing, missing
