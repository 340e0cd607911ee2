import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qubitchain as qc
from conftest import unitary_propagate
from qubitchain.harness import (
    ConfigError,
    ScanConfig,
    ScenarioConfig,
    classify_row,
    first_maximum,
    member_seed,
    propagate,
    run_scenario,
    sample_grid,
    steady_state_scan,
)
from qubitchain.outputs import emit_outputs, emit_scan_outputs

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def small_config(**overrides):
    base = {
        "schema_version": 1,
        "name": "test",
        "chain": {"n_qubits": 4, "epsilon": 0.0, "delta": 0.1, "coupling": 0.025},
        "initial_state": "product_eigen",
        "quench": {"k_ini": 0.0, "k_fin": 0.025},
        "noise": {"gamma": 0.0, "n_thermal": 0.0},
        "solver": {"kind": "exact"},
        "t_max": 10.0,
        "dt": 0.05,
        "sample_every": 20,
        "observables": {"pairs": [[1, 2]], "measures": ["e_n"]},
        "seed": 11,
    }
    base.update(overrides)
    return ScenarioConfig.from_dict(base)


SMALL_SCAN = {
    "name": "scan-test",
    "chain": {"n_qubits": 3, "epsilon": 0.0, "delta": 0.1, "coupling": 0.025},
    "gammas": [0.0, 0.05],
    "coupling_ratios": [0.5],
    "n_thermal": 0.1,
    "transient_t_max": 20.0,
}


def load_config(data: dict):
    return (ScanConfig if "gammas" in data else ScenarioConfig).from_dict(data)


class TestConfig:
    def test_round_trips_through_dict(self):
        # Every shipped config of both kinds, plus the small test scenario.
        configs = {path.name: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}
        assert len(configs) == 13
        for name, data in {**configs, "small": small_config().to_dict()}.items():
            cfg = load_config(data)
            assert type(cfg).from_dict(cfg.to_dict()) == cfg, name

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            small_config(bogus=1)
        with pytest.raises(ConfigError, match="unknown quench keys"):
            small_config(quench={"k_ini": 0.0, "k_fin": 0.025, "bogus": 1})

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="unsupported schema_version 2"):
            small_config(schema_version=2)

    def test_exact_solver_size_guard(self):
        with pytest.raises(ConfigError, match="exact solver") as err:
            small_config(chain={"n_qubits": 15, "epsilon": 0.0, "delta": 0.1, "coupling": 0.025})
        assert re.search(r"estimated peak [\d.]+ GiB exceeds the [\d.]+ GiB", str(err.value))

    def test_uncoupled_chain_without_quench_is_a_config_error(self):
        data = {key: value for key, value in small_config().to_dict().items() if key != "quench"}
        data["chain"] = {"n_qubits": 1, "epsilon": 0.0, "delta": 0.1, "coupling": []}
        data["observables"] = {"pairs": [], "measures": ["e_n"]}
        with pytest.raises(ConfigError, match="explicit quench"):
            ScenarioConfig.from_dict(data)
        data["quench"] = {"k_ini": 0.0, "k_fin": 0.0}
        assert ScenarioConfig.from_dict(data).chain.n_qubits == 1

    def test_frozen_axes_needs_negativity(self):
        with pytest.raises(ConfigError, match="frozen_axes mode requires the e_n measure"):
            small_config(observables={"pairs": [[1, 2]], "measures": ["c2"], "frozen_axes": True})

    def test_pair_bounds_checked(self):
        with pytest.raises(ConfigError, match="pair"):
            small_config(observables={"pairs": [[1, 9]], "measures": ["e_n"]})

    def test_temperature_converted_to_occupation(self):
        cfg = small_config(noise={"gamma": 0.01, "temperature_mk": 41.0})
        assert cfg.noise.n_thermal == pytest.approx(0.0956, abs=0.001)
        assert cfg.noise_temperature_mk == 41.0

    def test_thermal_initial_needs_temperature(self):
        with pytest.raises(ConfigError, match="initial_temperature_mk"):
            small_config(initial_state="thermal_of_k_ini")

    def test_mps_restricted_to_product_start(self):
        with pytest.raises(ConfigError, match="product_eigen"):
            small_config(
                initial_state="bell_head_eigen",
                solver={"kind": "mps", "bond_dim": 16, "dt": 0.05},
            )

    def test_scan_rejects_t_cap(self):
        with pytest.raises(ConfigError, match=r"unknown scan config keys: \['t_cap'\]"):
            ScanConfig.from_dict({**SMALL_SCAN, "t_cap": 2e4})

    def test_scan_rejects_unknown_chain_keys(self):
        with pytest.raises(ConfigError, match=r"unknown chain keys: \['bogus'\]"):
            ScanConfig.from_dict({**SMALL_SCAN, "chain": {**SMALL_SCAN["chain"], "bogus": 1}})

    def test_scan_reports_missing_key(self):
        data = {k: v for k, v in SMALL_SCAN.items() if k != "gammas"}
        with pytest.raises(ConfigError, match="missing config key: 'gammas'"):
            ScanConfig.from_dict(data)

    def test_scan_chain_may_omit_coupling(self):
        chain = {k: v for k, v in SMALL_SCAN["chain"].items() if k != "coupling"}
        scan = ScanConfig.from_dict({**SMALL_SCAN, "chain": chain})
        assert scan.chain.n_qubits == 3

    def test_scan_ignores_seed(self):
        # A scan draws no random numbers: the seed is not part of its config.
        with_seed = ScanConfig.from_dict({**SMALL_SCAN, "seed": 5})
        assert with_seed.to_dict() == ScanConfig.from_dict(SMALL_SCAN).to_dict()
        assert "seed" not in with_seed.to_dict()

    def test_shipped_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            load_config(json.loads(path.read_text()))


class TestFirstMaximum:
    def test_parabolic_refinement_recovers_peak(self):
        times = np.linspace(0, 10, 41)
        series = np.exp(-((times - 4.1) ** 2))
        fm = first_maximum(times, series)
        assert fm.time == pytest.approx(4.1, abs=0.02)
        assert fm.value == pytest.approx(1.0, abs=1e-3)

    def test_floor_suppresses_noise_peaks(self):
        times = np.linspace(0, 5, 11)
        series = np.zeros(11)
        series[2] = 5e-5  # below detection floor
        assert first_maximum(times, series) is None

    def test_monotone_series_has_no_maximum(self):
        times = np.linspace(0, 5, 20)
        assert first_maximum(times, times / 5) is None


class TestRunScenario:
    def test_noiseless_exact_matches_integrator(self):
        fast = run_scenario(small_config())
        slow = run_scenario(
            small_config(noise={"gamma": 1e-12, "n_thermal": 0.0}, name="integrator")
        )
        a = fast.mean_series((1, 2))
        b = slow.mean_series((1, 2))
        assert np.abs(a - b).max() < 1e-6

    def test_ensemble_stats_shape_and_determinism(self):
        cfg = small_config(
            disorder={"fraction": 0.05, "targets": ["delta", "coupling"], "ensemble_size": 5},
            t_max=20.0,
        )
        res = run_scenario(cfg)
        assert res.member_series((1, 2)).shape == (5, len(res.times))
        res2 = run_scenario(cfg)
        assert np.array_equal(res.member_series((1, 2)), res2.member_series((1, 2)))

    def test_threads_do_not_change_results(self):
        cfg = small_config(
            disorder={"fraction": 0.05, "targets": ["delta", "coupling"], "ensemble_size": 4},
            t_max=15.0,
        )
        serial = run_scenario(cfg, threads=1)
        parallel = run_scenario(cfg, threads=3)
        assert np.array_equal(serial.member_series((1, 2)), parallel.member_series((1, 2)))

    def test_long_mps_chain_builds_nothing_dense(self):
        # A 40-site dense index or operator would need 2^40 entries.
        cfg = small_config(
            chain={"n_qubits": 40, "epsilon": 0.0, "delta": 0.1, "coupling": 0.025},
            noise={"gamma": 0.01, "n_thermal": 0.0},
            solver={"kind": "mps", "bond_dim": 4, "dt": 0.05},
            t_max=0.1,
            sample_every=1,
            observables={"pairs": [[1, 2], [39, 40]], "measures": ["e_n"]},
        )
        res = run_scenario(cfg)
        assert res.member_series((1, 2)).shape == (1, 3)
        assert res.member_series((1, 2))[0, -1] > 0

    def test_member_seeds_are_distinct_and_stable(self):
        seeds = {member_seed(9, m) for m in range(100)}
        assert len(seeds) == 100
        assert member_seed(9, 3) == member_seed(9, 3)

    def test_thermal_initial_state_runs(self):
        cfg = small_config(
            initial_state="thermal_of_k_ini",
            initial_temperature_mk=30.0,
            quench={"k_ini": 0.025, "k_fin": 0.025},
            noise={"gamma": 0.01, "temperature_mk": 30.0},
            t_max=5.0,
        )
        res = run_scenario(cfg)
        assert np.isfinite(res.mean_series((1, 2))).all()

    def test_block_observables(self):
        cfg = small_config(
            observables={
                "pairs": [[2, 3]],
                "blocks": [[[1, 2], [3, 4]]],
                "measures": ["e_n"],
            },
            t_max=15.0,
        )
        res = run_scenario(cfg)
        blocks = res.block_series[((1, 2), (3, 4))][0]
        pair = res.member_series((2, 3))[0]
        k = int(np.argmax(pair))
        assert blocks[k] >= pair[k] - 1e-9


class TestPropagation:
    @pytest.mark.slow
    def test_noisy_transfer_stays_below_ideal_peak(self):
        # Bell-head propagation: with decay and disorder the far pair never
        # reaches the noiseless transfer peak.
        ideal = run_scenario(
            ScenarioConfig.from_dict(
                json.loads((CONFIG_DIR / "propagation_ideal.json").read_text())
            )
        )
        noisy_cfg = json.loads((CONFIG_DIR / "propagation_noisy.json").read_text())
        noisy_cfg["disorder"]["ensemble_size"] = 1
        noisy_cfg["t_max"] = 50.0
        noisy = run_scenario(ScenarioConfig.from_dict(noisy_cfg))
        ideal_peak = ideal.mean_series((7, 8)).max()
        noisy_max = noisy.mean_series((7, 8)).max()
        assert ideal_peak > 0.1  # transfer does happen in the ideal chain
        assert noisy_max < ideal_peak

    @pytest.mark.parametrize(
        "overrides",
        [
            {"noise": {"gamma": 0.01, "n_thermal": 0.0}},
            {"initial_state": "thermal_of_k_ini", "initial_temperature_mk": 30.0},
            {
                "chain": {"n_qubits": 6, "epsilon": 0.0, "delta": 0.1, "coupling": 0.025},
                "noise": {"gamma": 0.01, "n_thermal": 0.0},
                "solver": {"kind": "mps", "bond_dim": 16, "dt": 0.05},
                "dt": 0.1,  # the exact-solver step, unused by mps
            },
        ],
        ids=["noisy_exact", "thermal_noiseless_exact", "mps_n6"],
    )
    def test_frozen_axes_bound_stays_below_negativity(self, overrides):
        cfg = small_config(
            observables={"pairs": [[2, 3]], "measures": ["e_n", "c2", "c2_opt"], "frozen_axes": True},
            t_max=20.0,
            **overrides,
        )
        res = run_scenario(cfg)
        frozen = res.frozen_axes_series[(2, 3)]
        en = res.member_series((2, 3))[0]
        c2 = res.member_series((2, 3), "c2")[0]
        assert len(frozen) == len(res.times)
        assert np.isfinite(frozen).all()
        assert (frozen <= en + 1e-9).all()
        # the reference instant is member 0's E_N peak, where the frozen
        # axes are the optimal axes
        k = int(np.argmax(en))
        assert res.frozen_axes_info["[2, 3]"]["reference_time"] == res.times[k]
        assert frozen[k] == pytest.approx(res.member_series((2, 3), "c2_opt")[0][k], abs=1e-12)
        assert frozen[k] >= c2[k] - 1e-12


def dense_reduced(rho: np.ndarray, sites) -> np.ndarray:
    """Partial trace of a chain density matrix onto ascending sites, by axis moves."""
    n = int(np.log2(len(rho)))
    keep = [s - 1 for s in sites]
    order = keep + [p for p in range(n) if p not in keep]
    tensor = rho.reshape((2,) * (2 * n)).transpose(order + [n + p for p in order])
    k, rest = 2 ** len(keep), 2 ** (n - len(keep))
    return np.einsum("iaja->ij", tensor.reshape(k, rest, k, rest))


class TestNoiselessBlocks:
    """The noiseless propagation over parity blocks against one block and a dense expm oracle."""

    PAIRS = ((1, 2), (1, 3), (2, 4))
    T_MAX, DT, EVERY = 30.0, 0.25, 2  # 61 samples: several chunks of 2^N at N = 4 and 5

    def initial_states(self, chain):
        h_ini = qc.build_hamiltonian_eigen(chain.with_coupling(0.001))
        n = chain.n_qubits
        return {
            "product_eigen": qc.eigenbasis_product(n),
            "bell_head_eigen": qc.eigenbasis_bell_head(n),
            "ground_of_k_ini": qc.ground_state(h_ini).vector,
            "thermal_of_k_ini": qc.thermal_state(h_ini, 0.03),
        }

    def series(self, state0, h, blocks):
        n = int(np.log2(len(h)))
        out = {p: [] for p in self.PAIRS}
        times = []
        for ts, acc in propagate(state0, h, qc.RateSet.zero(n), self.T_MAX, self.DT, self.EVERY, blocks=blocks):
            times.extend(ts)
            for p in self.PAIRS:
                out[p].extend(acc(p).matrix)
        assert np.array_equal(times, sample_grid(self.T_MAX, self.DT, self.EVERY))
        return {p: np.array(v) for p, v in out.items()}

    def oracle(self, state0, h):
        rho0 = qc.density_from_pure(state0) if state0.ndim == 1 else state0
        states = [unitary_propagate(rho0, h, t) for t in sample_grid(self.T_MAX, self.DT, self.EVERY)]
        return {p: np.array([dense_reduced(rho, p) for rho in states]) for p in self.PAIRS}

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_two_blocks_match_one_block_and_expm(self, n):
        chain = qc.ChainSpec(n, 0.0, 0.1, tuple(np.linspace(0.02, 0.03, n - 1)))
        h = qc.build_hamiltonian_eigen(chain)
        blocks = qc.chain.parity_blocks(chain)
        assert len(blocks) == 2
        for name, state0 in self.initial_states(chain).items():
            two = self.series(state0, h, blocks)
            one = self.series(state0, h, None)
            want = self.oracle(state0, h)
            for p in self.PAIRS:
                assert np.abs(two[p] - want[p]).max() < 1e-12, (name, p)
                assert np.abs(two[p] - one[p]).max() < 1e-12, (name, p)

    def test_blocks_without_weight_are_skipped(self, monkeypatch):
        chain = qc.ChainSpec.homogeneous(5)
        h = qc.build_hamiltonian_eigen(chain)
        blocks = qc.chain.parity_blocks(chain)
        grazed = qc.eigenbasis_product(5)
        grazed[1] = 1e-20  # odd-sector roundoff, as in a full-eigh ground state
        eigh, sizes = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or eigh(m))
        for state0, expected in [
            (qc.eigenbasis_product(5), [16]),
            (qc.eigenbasis_bell_head(5), [16]),
            (grazed, [16, 16]),
            (qc.density_from_pure(qc.eigenbasis_bell_head(5)), [16]),
        ]:
            sizes.clear()
            for ts, acc in propagate(state0, h, qc.RateSet.zero(5), 5.0, 0.5, blocks=blocks):
                assert acc((1, 2)).matrix.shape == (len(ts), 4, 4)
            assert sizes == expected

    def test_biased_chain_is_one_block_and_matches_expm(self):
        chain = qc.ChainSpec(5, (0.02, -0.01, 0.0, 0.03, 0.01), 0.1, 0.025)
        blocks = qc.chain.parity_blocks(chain)
        assert len(blocks) == 1 and np.array_equal(blocks[0], np.arange(32))
        h = qc.build_hamiltonian_eigen(chain)
        for name, state0 in self.initial_states(chain).items():
            got = self.series(state0, h, blocks)
            want = self.oracle(state0, h)
            for p in self.PAIRS:
                assert np.abs(got[p] - want[p]).max() < 1e-12, (name, p)

    def test_run_scenario_uses_parity_blocks_of_each_member(self):
        # Epsilon disorder breaks the parity split; both kinds of member
        # must reproduce the dense oracle.
        for targets in (["delta", "coupling"], ["epsilon"]):
            cfg = small_config(
                disorder={"fraction": 0.05, "targets": targets, "ensemble_size": 2},
                observables={"pairs": [[1, 2], [2, 4]], "measures": ["e_n"]},
            )
            res = run_scenario(cfg)
            for m in range(2):
                chain = qc.harness._member_chain(cfg, m)
                h = qc.build_hamiltonian_eigen(chain)
                rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
                for p in cfg.observables.pairs:
                    want = [qc.pair_log_negativity(unitary_propagate(rho0, h, t), *p) for t in res.times]
                    assert np.abs(res.member_series(p)[m] - want).max() < 1e-12, (targets, m, p)


class TestEmitOutputs:
    def test_byte_identical_rerun(self, tmp_path):
        cfg = small_config(
            noise={"gamma": 0.01, "n_thermal": 0.0},
            observables={"pairs": [[1, 2], [3, 4]], "measures": ["e_n", "c1", "c2", "c2_opt"]},
        )
        emit_outputs(run_scenario(cfg), tmp_path / "a", "build-test")
        emit_outputs(run_scenario(cfg), tmp_path / "b", "build-test")
        for name in ("timeseries.csv", "config.json", "stats.json", "manifest.json", "pair_1_2.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_observables_manifest_only(self, tmp_path):
        cfg = small_config(observables={"pairs": [], "measures": ["e_n"]})
        res = run_scenario(cfg)
        emit_outputs(res, tmp_path / "run", "build-test")
        names = {p.name for p in (tmp_path / "run").iterdir()}
        assert "manifest.json" in names and "config.json" in names
        assert not any(n.endswith(".csv") for n in names)

    def test_bound_ordering_in_emitted_columns(self, tmp_path):
        cfg = small_config(
            noise={"gamma": 0.01, "n_thermal": 0.0},
            chain={"n_qubits": 4, "epsilon": 0.0, "delta": 0.1, "coupling": 0.025},
            observables={"pairs": [[2, 3]], "measures": ["e_n", "c1", "c2", "c2_opt"]},
            t_max=20.0,
        )
        emit_outputs(run_scenario(cfg), tmp_path / "run", "build-test")
        lines = (tmp_path / "run" / "timeseries.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["time", "pair_i", "pair_j", "e_n", "c1", "c2", "c2_opt", "ensemble_mean_flag"]
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            en = float(cells["e_n"])
            c2 = float(cells["c2"])
            assert c2 <= en + 1e-9
            if cells["c2_opt"]:
                c2o = float(cells["c2_opt"])
                assert c2 <= c2o + 1e-9 and c2o <= en + 1e-9

    def test_manifest_lists_checksums_and_flags(self, tmp_path):
        cfg = small_config(noise={"gamma": 0.01, "n_thermal": 0.0})
        res = run_scenario(cfg)
        manifest_path = emit_outputs(res, tmp_path / "run", "build-test")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config_hash"]
        assert set(manifest["files"]) >= {"config.json", "timeseries.csv", "stats.json"}
        from qubitchain.outputs import sha256_file

        for name, digest in manifest["files"].items():
            assert sha256_file(tmp_path / "run" / name) == digest


class TestSteadyScan:
    def test_classification_rules(self):
        assert classify_row([0.0, 0.0, 0.0]) == "zero"
        assert classify_row([0.0, 0.0, 0.02, 0.01]) == "non_monotone"
        assert classify_row([0.05, 0.03, 0.0]) == "monotone_decreasing"

    def test_hot_environment_washes_out_steady_entanglement(self):
        # very large thermal occupation: every row classifies as zero, and a
        # direct steady-state solve at one grid point confirms separability.
        scan = ScanConfig.from_dict(
            {
                "name": "washout",
                "chain": {"n_qubits": 3, "epsilon": 0.0, "delta": 0.1, "coupling": 0.025},
                "gammas": [0.01, 0.1],
                "coupling_ratios": [0.5, 1.0],
                "n_thermal": 10.0,
                "transient_t_max": 20.0,
            }
        )
        result = steady_state_scan(scan)
        assert set(result.classifications.values()) == {"zero"}
        chain = scan.chain.with_coupling(0.1)
        h = qc.build_hamiltonian_eigen(chain)
        rates = qc.rates_from_angles(qc.mixing_angles(chain), qc.NoiseSpec(0.1, 10.0))
        res = qc.steady_state(h, rates, tol=1e-9)
        assert res.converged
        assert qc.pair_log_negativity(res.state, 1, 2) == 0.0

    def test_small_scan_excludes_gamma_zero(self, tmp_path):
        result = steady_state_scan(ScanConfig.from_dict(SMALL_SCAN))
        zero_point = result.points[0]
        assert not zero_point.applicable and math.isnan(zero_point.steady_e_n)
        assert result.points[1].applicable and result.points[1].converged
        emit_scan_outputs(result, tmp_path / "scan", "build-test")
        lines = (tmp_path / "scan" / "scan.csv").read_text().splitlines()
        assert lines[1].endswith(",0")  # gamma = 0 marked not applicable


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "qubitchain.cli", *argv],
            capture_output=True,
            text=True,
        )

    def test_run_command_end_to_end(self, tmp_path):
        cfg = small_config(t_max=5.0).to_dict()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        proc = self._run("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()
        assert "first-maximum" in proc.stdout

    def test_seed_override_changes_manifest(self, tmp_path):
        cfg = small_config(
            t_max=5.0,
            disorder={"fraction": 0.05, "targets": ["delta"], "ensemble_size": 2},
        ).to_dict()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = self._run("run", "--config", str(cfg_path), "--out", str(tmp_path / "o1"), "--seed", "99")
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "o1" / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_config_over_memory_writes_estimate(self, tmp_path):
        cfg = small_config().to_dict()
        cfg["chain"] = {"n_qubits": 15, "epsilon": 0.0, "delta": 0.1, "coupling": 0.025}
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        proc = self._run("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 1
        error = json.loads((out / "error.json").read_text())
        assert error["type"] == "ConfigError"
        assert re.search(r"exact solver .* estimated peak [\d.]+ GiB exceeds the [\d.]+ GiB", error["error"])

    def test_bad_config_writes_error_manifest(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"schema_version": 1, "name": "x"}))
        out = tmp_path / "out"
        proc = self._run("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 1
        error = json.loads((out / "error.json").read_text())
        assert error["type"] == "ConfigError"

    def test_scan_command(self, tmp_path):
        scan_cfg = {
            "name": "scan-cli",
            "chain": {"n_qubits": 3, "epsilon": 0.0, "delta": 0.1, "coupling": 0.025},
            "gammas": [0.05],
            "coupling_ratios": [0.5],
            "n_thermal": 0.1,
            "transient_t_max": 15.0,
        }
        cfg_path = tmp_path / "scan.json"
        cfg_path.write_text(json.dumps(scan_cfg))
        out = tmp_path / "out"
        proc = self._run("scan", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "scan.csv").exists()
        assert (out / "scan_summary.json").exists()

    def test_bounds_command(self, tmp_path):
        rows = ["i,j,a,b,value"]
        diag = {"xx": 1.0, "yy": 1.0, "zz": -1.0}
        for a in "xyz":
            for b in "xyz":
                rows.append(f"1,2,{a},{b},{diag.get(a + b, 0.0)}")
        csv_path = tmp_path / "corr.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        proc = self._run("bounds", "--correlations", str(csv_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        content = (out / "bounds.csv").read_text().splitlines()
        cells = content[1].split(",")
        assert float(cells[2]) == pytest.approx(1.0)  # c1 of a Bell state
        assert float(cells[4]) == pytest.approx(1.0)  # c2_opt
