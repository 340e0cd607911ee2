import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qubitchain as qc
from conftest import dense, unitary_propagate, whole
from qubitchain.cli import main as cli_main
from qubitchain.mps import MixedTebdEngine, mps_from_product
from qubitchain.negativity import log_negativity
from qubitchain.harness import (
    ConfigError,
    FirstMaximum,
    ScanConfig,
    ScenarioConfig,
    _first_max_value,
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
        "chain": {"n_qubits": 4, "epsilon": 0.0, "delta": 0.1},
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
    "chain": {"n_qubits": 3, "epsilon": 0.0, "delta": 0.1},
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
        assert len(configs) == 14
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
            small_config(chain={"n_qubits": 15, "epsilon": 0.0, "delta": 0.1})
        assert re.search(r"estimated peak [\d.]+ GiB exceeds the [\d.]+ GiB", str(err.value))

    def test_noisy_estimate_counts_parity_sectors(self):
        noise = {"gamma": 0.01, "n_thermal": 0.0}
        two = small_config(noise=noise).member_bytes
        biased = small_config(noise=noise, chain={"n_qubits": 4, "epsilon": 0.01, "delta": 0.1})
        disordered = small_config(noise=noise, disorder={"fraction": 0.05, "targets": ["epsilon"], "ensemble_size": 2})
        assert biased.member_bytes == disordered.member_bytes == 2 * two
        # The estimate and the Hamiltonian builder read the epsilon rule each
        # on its own: they must agree on every shipped exact config.
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = load_config(json.loads(path.read_text()))
            if isinstance(cfg, ScanConfig):
                chain = cfg.chain.with_coupling(cfg.coupling_ratios[0] * cfg.chain.delta[0])
                sectors = qc.harness._parity_sectors(cfg.chain)
            elif cfg.solver.kind == "exact":
                chain = qc.harness._member_chain(cfg, 0, cfg.quench.k_fin)
                sectors = qc.harness._parity_sectors(cfg.chain, cfg.disorder.targets if cfg.disorder else ())
            else:
                continue
            assert len(qc.build_hamiltonian_eigen(chain)) == sectors, path.name

    def test_uncoupled_chain_without_quench_is_a_config_error(self):
        data = {key: value for key, value in small_config().to_dict().items() if key != "quench"}
        data["chain"] = {"n_qubits": 1, "epsilon": 0.0, "delta": 0.1}
        data["observables"] = {"pairs": [], "measures": ["e_n"]}
        with pytest.raises(ConfigError, match="missing config key: 'quench'"):
            ScenarioConfig.from_dict(data)
        data["quench"] = {"k_ini": 0.0, "k_fin": 0.0}
        assert ScenarioConfig.from_dict(data).chain.n_qubits == 1

    def test_second_copies_of_coupling_and_step_refused(self):
        # The quench (a scan: each ratio) sets the couplings, and every
        # solver steps at the top-level dt.
        with pytest.raises(ConfigError, match=r"unknown chain keys: \['coupling'\]"):
            small_config(chain={"n_qubits": 4, "epsilon": 0.0, "delta": 0.1, "coupling": 0.025})
        with pytest.raises(ConfigError, match=r"unknown chain keys: \['coupling'\]"):
            ScanConfig.from_dict({**SMALL_SCAN, "chain": {**SMALL_SCAN["chain"], "coupling": 0.025}})
        with pytest.raises(ConfigError, match=r"unknown solver keys: \['dt'\]"):
            small_config(solver={"kind": "mps", "bond_dim": 16, "dt": 0.05})

    def test_chains_take_their_couplings_from_quench_or_scan(self):
        cfg = small_config(quench={"k_ini": 0.0, "k_fin": 0.03})
        assert qc.harness._member_chain(cfg, 0, cfg.quench.k_fin).coupling == (0.03,) * 3
        assert "coupling" not in cfg.to_dict()["chain"]
        scan = ScanConfig.from_dict(SMALL_SCAN)
        assert scan.chain.coupling == (0.0, 0.0)
        assert "coupling" not in scan.to_dict()["chain"]

    def test_frozen_axes_needs_negativity(self):
        with pytest.raises(ConfigError, match="frozen_axes mode requires the e_n measure"):
            small_config(observables={"pairs": [[1, 2]], "measures": ["c2"], "frozen_axes": True})

    def test_pair_bounds_checked(self):
        # One check and one message for the pairs of both config kinds.
        scan_chain = {**SMALL_SCAN["chain"], "n_qubits": 4}
        for pair in ((1, 9), (2, 1), (2, 2), (0, 2)):
            message = re.escape(f"pair {pair} must be ordered i < j within the chain of 4 sites")
            with pytest.raises(ConfigError, match=message):
                small_config(observables={"pairs": [list(pair)], "measures": ["e_n"]})
            with pytest.raises(ConfigError, match=message):
                ScanConfig.from_dict({**SMALL_SCAN, "chain": scan_chain, "pair": list(pair)})

    @pytest.mark.parametrize("seed", [-3, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            small_config(seed=seed)
        # the CLI --seed override goes through dataclasses.replace
        with pytest.raises(ConfigError, match="seed"):
            replace(small_config(), seed=seed)

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ConfigError, match="blocks"):
            small_config(observables={"pairs": [], "blocks": [[[1, 2], [2, 3]]], "measures": ["e_n"]})

    def test_temperature_converted_to_occupation(self):
        cfg = small_config(noise={"gamma": 0.01, "temperature_mk": 41.0})
        assert cfg.effective_noise.n_thermal == pytest.approx(0.0956, abs=0.001)
        assert cfg.noise_temperature_mk == 41.0

    @pytest.mark.parametrize(
        "override",
        [
            {"dt": math.inf},  # would run as a single sample at t = 0
            {"dt": 20.0},  # longer than t_max: the same single sample
            {"t_max": math.nan},  # would fail in sample_grid
            {"initial_temperature_mk": -5.0},  # would fail at run time
            {"initial_temperature_mk": "30"},
            {"initial_temperature_mk": True},  # would run at 1 mK
            {"initial_temperature_mk": None},
            {"initial_temperature_mk": math.inf},
            {"noise": {"gamma": 0.01, "temperature_mk": 0.0}},  # would fail at run time
            {"noise": {"gamma": 0.01, "temperature_mk": -22.0}},
        ],
    )
    def test_load_refuses_what_a_run_fails_on_or_misreads(self, override):
        thermal = {"initial_state": "thermal_of_k_ini", "initial_temperature_mk": 30.0}
        with pytest.raises(ConfigError):
            small_config(**{**thermal, **override})

    def test_non_json_numbers_refused(self, tmp_path):
        # json.load reads NaN and Infinity by default; a config takes JSON numbers only.
        for literal in ("NaN", "Infinity", "-Infinity"):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(small_config().to_dict()).replace('"dt": 0.05', f'"dt": {literal}'))
            out = tmp_path / literal
            assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
            assert json.loads((out / "error.json").read_text()) == {
                "error": f"{literal} is not a JSON number",
                "type": "ConfigError",
            }

    def test_thermal_initial_needs_temperature(self):
        with pytest.raises(ConfigError, match="initial_temperature_mk"):
            small_config(initial_state="thermal_of_k_ini")

    def test_initial_temperature_only_with_thermal_start(self):
        data = json.loads((CONFIG_DIR / "generation_ideal.json").read_text())
        with pytest.raises(ConfigError, match="initial_temperature_mk is read by thermal_of_k_ini only"):
            ScenarioConfig.from_dict({**data, "initial_temperature_mk": 30.0})
        for kind in ("product_eigen", "bell_head_eigen", "ground_of_k_ini"):
            with pytest.raises(ConfigError, match="initial_temperature_mk"):
                replace(small_config(initial_state=kind), initial_temperature_mk=30.0)

    def test_k_ini_only_with_a_k_ini_start(self):
        data = json.loads((CONFIG_DIR / "generation_ideal.json").read_text())
        assert data["quench"]["k_ini"] == 0.0
        with pytest.raises(ConfigError, match="quench.k_ini is read by ground_of_k_ini and thermal_of_k_ini only"):
            ScenarioConfig.from_dict({**data, "quench": {**data["quench"], "k_ini": 0.02}})
        for kind in ("product_eigen", "bell_head_eigen"):
            with pytest.raises(ConfigError, match=f"quench.k_ini .* not {kind}"):
                replace(small_config(initial_state=kind), quench=qc.QuenchSpec(0.02, 0.025))
        small_config(initial_state="ground_of_k_ini", quench={"k_ini": 0.02, "k_fin": 0.025})

    def test_noise_temperature_stored_once(self):
        # n_T follows the temperature and the chain a config runs with, and
        # config.json holds them as written.
        base = small_config(noise={"gamma": 0.01, "temperature_mk": 33.0}, t_max=5.0)
        for changed in (replace(base, noise_temperature_mk=50.0), replace(base, chain=replace(base.chain, delta=0.2))):
            reloaded = ScenarioConfig.from_dict(changed.to_dict())
            assert reloaded == changed
            assert changed.effective_noise == reloaded.effective_noise != base.effective_noise
            assert np.array_equal(
                run_scenario(changed).stats.mean[(1, 2)]["e_n"], run_scenario(reloaded).stats.mean[(1, 2)]["e_n"]
            )
        with pytest.raises(ConfigError, match="not both"):
            replace(base, noise=qc.NoiseSpec(0.01, 0.1))

    def test_replaced_quench_sets_the_couplings(self):
        cfg = replace(small_config(t_max=5.0), quench=qc.QuenchSpec(0.0, 0.05))
        assert cfg.to_dict()["quench"] == {"k_ini": 0.0, "k_fin": 0.05}
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
        fresh = small_config(t_max=5.0, quench={"k_ini": 0.0, "k_fin": 0.05})
        assert np.array_equal(
            run_scenario(cfg).stats.mean[(1, 2)]["e_n"], run_scenario(fresh).stats.mean[(1, 2)]["e_n"]
        )

    def test_mps_needs_two_sites(self):
        # The same one-site config runs on the exact solver.
        one_site = {
            "chain": {"n_qubits": 1, "epsilon": 0.0, "delta": 0.1},
            "observables": {"pairs": [], "measures": ["e_n"]},
        }
        assert run_scenario(small_config(t_max=1.0, **one_site)).times[-1] == pytest.approx(1.0)
        with pytest.raises(ConfigError, match="the mps solver needs at least two sites"):
            small_config(**one_site, solver={"kind": "mps", "bond_dim": 4})

    def test_mps_restricted_to_product_start(self):
        with pytest.raises(ConfigError, match="product_eigen"):
            small_config(
                initial_state="bell_head_eigen",
                solver={"kind": "mps", "bond_dim": 16},
            )

    def test_scan_rejects_t_cap(self):
        with pytest.raises(ConfigError, match=r"unknown scan config keys: \['t_cap'\]"):
            ScanConfig.from_dict({**SMALL_SCAN, "t_cap": 2e4})

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"pair": [1, 9]}, "pair"),
            ({"pair": [2, 1]}, "pair"),
            # not a scan key: the transient is sampled every 0.5
            ({"transient_dt": 0.05}, "transient_dt"),
            ({"transient_t_max": -1.0}, "transient_t_max"),
            ({"tol": -1}, "tol"),
            ({"gammas": [0.01, -0.05]}, "gamma"),
            ({"n_thermal": -0.1}, "n_thermal"),
            # classify_row reads each row in grid order; a repeated ratio merges two rows.
            ({"gammas": [0.05, 0.0]}, "gammas must ascend strictly"),
            ({"gammas": [0.0, 0.05, 0.05]}, "gammas must ascend strictly"),
            ({"coupling_ratios": [0.5, 0.5]}, "coupling_ratios must be distinct"),
            ({"transient_t_max": math.inf}, "transient_t_max"),  # would overflow at run time
            ({"tol": math.inf}, "tol"),  # would certify every point
        ],
    )
    def test_scan_rejects_out_of_range_values(self, override, match):
        with pytest.raises(ConfigError, match=match):
            ScanConfig.from_dict({**SMALL_SCAN, **override})

    def test_scan_rejects_unknown_chain_keys(self):
        with pytest.raises(ConfigError, match=r"unknown chain keys: \['bogus'\]"):
            ScanConfig.from_dict({**SMALL_SCAN, "chain": {**SMALL_SCAN["chain"], "bogus": 1}})

    def test_scan_reports_missing_key(self):
        data = {k: v for k, v in SMALL_SCAN.items() if k != "gammas"}
        with pytest.raises(ConfigError, match="missing config key: 'gammas'"):
            ScanConfig.from_dict(data)

    def test_scan_ignores_seed(self):
        # A scan draws no random numbers: the seed is not part of its config.
        with_seed = ScanConfig.from_dict({**SMALL_SCAN, "seed": 5})
        assert with_seed.to_dict() == ScanConfig.from_dict(SMALL_SCAN).to_dict()
        assert "seed" not in with_seed.to_dict()

    def test_scan_estimate_counts_the_steady_solve(self, monkeypatch):
        # A noisy scan is sized by its steady-state solve, whose GMRES Krylov
        # basis alone holds restart + 1 sector stacks (d^2/2 entries each).
        from qubitchain import lindblad

        estimates = []
        monkeypatch.setattr(qc.harness, "_check_exact_memory", lambda n, member_bytes: estimates.append(member_bytes))
        ScanConfig.from_dict(SMALL_SCAN)
        ScanConfig.from_dict({**SMALL_SCAN, "gammas": [0.0]})
        krylov = (lindblad._RESTART + 1) * 16 * 4**3 // 2
        assert estimates[0] > krylov
        assert estimates[1] == qc.harness.exact_member_bytes(3, noisy=False)

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

    def test_unequal_spacings_report_the_sample(self):
        # sample_grid ends with a shorter step when sample_every does not
        # divide the step count; a parabola over equal spacings would put
        # this maximum above 1 and past the last time.
        times = sample_grid(1.0, 0.1, 3)
        assert times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
        series = 1.0 - (times - 0.93) ** 2
        assert first_maximum(times, series) == FirstMaximum(series[3], times[3])
        blocks = [(times[:3], series[:3]), (times[3:], series[3:])]
        assert _first_max_value(iter(blocks)) == series[3]

    def test_run_with_a_short_last_interval_reports_the_sample(self):
        # E_N(1, 2) of the small chain first peaks near t = 15.24: on this
        # grid at the sample t = 15, before the last step of 0.5.
        result = run_scenario(small_config(t_max=15.5, sample_every=60))
        assert result.times[-3:] == pytest.approx([12.0, 15.0, 15.5])
        series = result.stats.mean[(1, 2)]["e_n"]
        assert result.stats.first_max_values[(1, 2)][0] == series[-2] == series.max()
        assert result.stats.first_max_times[(1, 2)][0] == result.times[-2]

    def test_series_flat_up_to_roundoff_has_no_maximum(self):
        # a stationary state: E_N constant up to its last bits
        times = np.linspace(0, 20, 41)
        series = 0.0224 * (1 + 1e-14 * np.random.default_rng(3).standard_normal(41))
        assert first_maximum(times, series) is None


class TestRunScenario:
    def test_noiseless_exact_matches_integrator(self):
        fast = run_scenario(small_config())
        slow = run_scenario(
            small_config(noise={"gamma": 1e-12, "n_thermal": 0.0}, name="integrator")
        )
        a = fast.stats.mean[(1, 2)]["e_n"]
        b = slow.stats.mean[(1, 2)]["e_n"]
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
            chain={"n_qubits": 40, "epsilon": 0.0, "delta": 0.1},
            noise={"gamma": 0.01, "n_thermal": 0.0},
            solver={"kind": "mps", "bond_dim": 4},
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
        assert np.isfinite(res.stats.mean[(1, 2)]["e_n"]).all()

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
        ideal_peak = ideal.stats.mean[(7, 8)]["e_n"].max()
        noisy_max = noisy.stats.mean[(7, 8)]["e_n"].max()
        assert ideal_peak > 0.1  # transfer does happen in the ideal chain
        assert noisy_max < ideal_peak

    @pytest.mark.parametrize(
        "overrides",
        [
            {"noise": {"gamma": 0.01, "n_thermal": 0.0}},
            {"initial_state": "thermal_of_k_ini", "initial_temperature_mk": 30.0},
            {
                "chain": {"n_qubits": 6, "epsilon": 0.0, "delta": 0.1},
                "noise": {"gamma": 0.01, "n_thermal": 0.0},
                "solver": {"kind": "mps", "bond_dim": 16},
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


    def test_engine_must_step_at_the_grid_dt(self):
        # An engine of another step would label each sample with the wrong time.
        spec, rates = qc.ChainSpec.homogeneous(4), qc.RateSet.zero(4)
        state0 = mps_from_product([np.diag([1.0, 0.0]).astype(complex)] * 4)
        engine = MixedTebdEngine(spec, rates, 0.05, bond_dim=8)
        with pytest.raises(ValueError, match="dt"):
            next(propagate(state0, None, rates, 2.0, 0.1, 1, engine))
        ts, _ = next(propagate(state0, None, rates, 2.0, 0.05, 1, engine))
        assert list(ts) == [0.0]


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

    def series(self, state0, h):
        n = int(np.log2(len(state0)))
        out = {p: [] for p in self.PAIRS}
        times = []
        for ts, acc in propagate(state0, h, qc.RateSet.zero(n), self.T_MAX, self.DT, self.EVERY):
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
        assert len(h) == 2
        for name, state0 in self.initial_states(chain).items():
            two = self.series(state0, h)
            one = self.series(state0, whole(dense(h)))
            want = self.oracle(state0, h)
            for p in self.PAIRS:
                assert np.abs(two[p] - want[p]).max() < 1e-12, (name, p)
                assert np.abs(two[p] - one[p]).max() < 1e-12, (name, p)

    def test_blocks_without_weight_are_skipped(self, monkeypatch):
        chain = qc.ChainSpec.homogeneous(5)
        h = qc.build_hamiltonian_eigen(chain)
        grazed = qc.eigenbasis_product(5)
        grazed[1] = 1e-20  # odd-sector roundoff, as in a full-eigh ground state
        coherent = np.zeros(32, dtype=complex)
        coherent[[0, 16]] = 1 / np.sqrt(2)  # (|00000> + |10000>)/sqrt(2)
        eigh, sizes = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or eigh(m))
        for state0, expected in [
            (qc.eigenbasis_product(5), [16]),
            (qc.eigenbasis_bell_head(5), [16]),
            (grazed, [16, 16]),
            (qc.density_from_pure(qc.eigenbasis_bell_head(5)), [16]),
            # Coherence between the sectors: one block of every index, as with noise.
            (qc.density_from_pure(coherent), [32]),
        ]:
            sizes.clear()
            for ts, acc in propagate(state0, h, qc.RateSet.zero(5), 5.0, 0.5):
                assert acc((1, 2)).matrix.shape == (len(ts), 4, 4)
            assert sizes == expected

    def test_biased_chain_is_one_block_and_matches_expm(self):
        chain = qc.ChainSpec(5, (0.02, -0.01, 0.0, 0.03, 0.01), 0.1, 0.025)
        h = qc.build_hamiltonian_eigen(chain)
        assert len(h) == 1 and np.array_equal(h[0][0], np.arange(32))
        for name, state0 in self.initial_states(chain).items():
            got = self.series(state0, h)
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
                chain = qc.harness._member_chain(cfg, m, cfg.quench.k_fin)
                h = qc.build_hamiltonian_eigen(chain)
                rho0 = qc.density_from_pure(qc.eigenbasis_product(4))
                for p in cfg.observables.pairs:
                    want = [qc.pair_log_negativity(unitary_propagate(rho0, h, t), *p) for t in res.times]
                    assert np.abs(res.member_series(p)[m] - want).max() < 1e-12, (targets, m, p)


class TestNoisyBlocks:
    """The noisy dense path on the parity sector against one block of every index."""

    PAIRS = ((1, 2), (2, 4))

    def series(self, state0, h, rates):
        out = {p: [] for p in self.PAIRS}
        for ts, acc in propagate(state0, h, rates, 5.0, 0.05, 10):
            for p in self.PAIRS:
                out[p].extend(acc(p).matrix)
        return {p: np.array(v) for p, v in out.items()}

    def test_coherent_start_runs_as_one_block(self, monkeypatch):
        import qubitchain.harness as harness

        chain = qc.ChainSpec.homogeneous(4)
        h = qc.build_hamiltonian_eigen(chain)
        rates = qc.rates_from_angles(qc.mixing_angles(chain), qc.NoiseSpec(0.02, 0.1))
        coherent = np.zeros(16, dtype=complex)
        coherent[[0, 8]] = 2**-0.5  # |0000> + |1000>: even and odd
        counts, stream = [], harness.stream
        monkeypatch.setattr(harness, "stream", lambda *a: counts.append(len(a[1])) or stream(*a))
        for state0, expected in [
            (qc.eigenbasis_product(4), 2),
            (qc.density_from_pure(qc.eigenbasis_bell_head(4)), 2),
            (coherent, 1),
            (qc.density_from_pure(coherent), 1),
        ]:
            counts.clear()
            two = self.series(state0, h, rates)
            assert counts == [expected]
            one = self.series(state0, whole(dense(h)), rates)
            for p in self.PAIRS:
                assert np.abs(two[p] - one[p]).max() < 1e-12

    def test_member_draw_scales_both_quench_couplings(self):
        from qubitchain.harness import _member_chain, _prepare_initial

        disorder = {"fraction": 0.05, "targets": ["coupling"], "ensemble_size": 2}
        cfg = small_config(initial_state="ground_of_k_ini", quench={"k_ini": 0.02, "k_fin": 0.0}, disorder=disorder)
        chain_ini = _member_chain(cfg, 1, 0.02)
        assert len(set(chain_ini.coupling)) == 3
        assert np.array_equal(_prepare_initial(cfg, 1), qc.ground_state(qc.build_hamiltonian_eigen(chain_ini)).vector)
        for k_fin in (1e-9, 0.025):
            cfg = replace(cfg, quench=qc.QuenchSpec(0.02, k_fin))
            ratio = np.divide(_member_chain(cfg, 1, 0.02).coupling, _member_chain(cfg, 1, k_fin).coupling)
            np.testing.assert_allclose(ratio, 0.02 / k_fin, rtol=1e-14, atol=0)

    def test_prepared_states_have_no_inter_sector_weight(self):
        from qubitchain.harness import _prepare_initial
        from qubitchain.lindblad import couples_blocks

        for kind, extra in (("ground_of_k_ini", {}), ("thermal_of_k_ini", {"initial_temperature_mk": 33.0})):
            cfg = small_config(initial_state=kind, quench={"k_ini": 0.01, "k_fin": 0.025}, **extra)
            chain = qc.harness._member_chain(cfg, 0, cfg.quench.k_fin)
            state0 = _prepare_initial(cfg, 0)
            rho0 = qc.density_from_pure(state0) if state0.ndim == 1 else state0
            assert not couples_blocks(rho0, [b for b, _ in qc.build_hamiltonian_eigen(chain)]), kind


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

    def test_stats_without_a_first_maximum_are_json(self, tmp_path):
        # A run too short to reach a first maximum: its statistics are null, not a bare NaN.
        emit_outputs(run_scenario(small_config(t_max=1.0)), tmp_path / "run", "build-test")
        text = (tmp_path / "run" / "stats.json").read_text()
        stats = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in stats.json"))
        assert stats["first_maximum"]["1,2"] == {
            "mean_value": None, "mean_time": None, "relative_fluctuation": None, "values": [None],
        }

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
            chain={"n_qubits": 4, "epsilon": 0.0, "delta": 0.1},
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

    def test_manifest_lists_exactly_the_files_written(self, tmp_path):
        cfg = small_config(
            noise={"gamma": 0.01, "n_thermal": 0.0},
            disorder={"fraction": 0.05, "targets": ["delta"], "ensemble_size": 2},
            observables={
                "pairs": [[1, 2], [2, 3]],
                "measures": ["e_n", "c1", "c2", "c2_opt"],
                "blocks": [[[1, 2], [3, 4]]],
                "frozen_axes": True,
            },
        )
        result = run_scenario(cfg)
        corr = tmp_path / "corr.csv"
        corr.write_text("i,j,a,b,value\n" + "".join(f"1,2,{a},{b},{0.5 * (a == b)}\n" for a in "xyz" for b in "xyz"))
        assert cli_main(["bounds", "--correlations", str(corr), "--out", str(tmp_path / "bounds")]) == 0
        manifests = [
            emit_outputs(result, tmp_path / "run", "build-test"),
            emit_scan_outputs(steady_state_scan(ScanConfig.from_dict(SMALL_SCAN)), tmp_path / "scan", "build-test"),
            tmp_path / "bounds" / "manifest.json",
        ]
        for manifest in manifests:
            listed = set(json.loads(manifest.read_text())["files"])
            assert listed == {p.name for p in manifest.parent.iterdir()} - {"manifest.json"}
        assert {"blocks.csv", "frozen_axes.csv", "timeseries_std.csv"} <= {p.name for p in (tmp_path / "run").iterdir()}

        lines = (tmp_path / "run" / "blocks.csv").read_text().splitlines()
        mean = result.block_series[((1, 2), (3, 4))].mean(axis=0)
        assert lines[0] == "time,block_a,block_b,e_n"
        assert lines[1:] == [f"{float(t)!r},1+2,3+4,{float(v)!r}" for t, v in zip(result.times, mean)]

    def test_rerun_into_same_directory_leaves_only_its_own_files(self, tmp_path):
        wide = small_config(
            t_max=5.0,
            noise={"gamma": 0.01, "n_thermal": 0.0},
            observables={
                "pairs": [[1, 2], [2, 3]],
                "measures": ["e_n", "c1", "c2", "c2_opt"],
                "blocks": [[[1, 2], [3, 4]]],
                "frozen_axes": True,
            },
        )
        configs = {"wide": wide.to_dict(), "narrow": small_config(t_max=5.0).to_dict()}
        for name, data in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        out = tmp_path / "out"
        (out / "notes.txt").parent.mkdir()
        (out / "notes.txt").write_text("kept\n")
        run = ["run", "--out", str(out), "--config"]
        assert cli_main([*run, str(tmp_path / "wide.json")]) == 0
        assert {"blocks.csv", "frozen_axes.csv", "pair_2_3.svg"} <= {p.name for p in out.iterdir()}
        assert cli_main([*run, str(tmp_path / "narrow.json"), "--threads", "0"]) == 1
        assert (out / "error.json").exists()
        assert cli_main([*run, str(tmp_path / "narrow.json")]) == 0
        listed = set(json.loads((out / "manifest.json").read_text())["files"])
        assert {p.name for p in out.iterdir()} == listed | {"manifest.json", "notes.txt"}
        assert "pair_2_3.svg" not in listed

    def test_rerun_keeps_files_outside_the_directory(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        outside = tmp_path / "outside.csv"
        outside.write_text("kept\n")
        files = {"../outside.csv": "x", str(outside): "x", "..": "x"}
        (out / "manifest.json").write_text(json.dumps({"files": files}))
        emit_outputs(run_scenario(small_config(t_max=1.0)), out, "build-test")
        assert outside.read_text() == "kept\n"


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
                "chain": {"n_qubits": 3, "epsilon": 0.0, "delta": 0.1},
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

    def test_transient_stops_at_its_first_maximum(self, monkeypatch):
        # The scan reads each transient only up to its first maximum, and
        # reports the value first_maximum finds on the whole capped series;
        # a point without one runs to the cap.
        config = ScanConfig.from_dict(
            {**SMALL_SCAN, "gammas": [0.0, 0.01, 0.05, 0.2], "coupling_ratios": [0.5, 1.5]}
        )
        read = []

        def recording(*args):
            read.append([])
            for ts, acc in propagate(*args):
                read[-1].extend(ts)
                yield ts, acc

        monkeypatch.setattr(qc.harness, "propagate", recording)
        result = steady_state_scan(config)
        assert len(read) == len(result.points) == 8
        assert [p.first_max == 0.0 for p in result.points].count(True) == 1
        every = sample_grid(config.transient_t_max, 0.5, 1)  # a sample per 0.5 time units
        for point, times in zip(result.points, read):
            chain = config.chain.with_coupling(point.coupling_ratio * config.chain.delta[0])
            rates = qc.rates_from_angles(qc.mixing_angles(chain), qc.NoiseSpec(point.gamma, config.n_thermal))
            samples = propagate(
                qc.eigenbasis_product(3), qc.build_hamiltonian_eigen(chain), rates, config.transient_t_max, 0.5, 1
            )
            full = [(ts, log_negativity(acc((1, 2)), (1,))) for ts, acc in samples]
            tt, series = (np.concatenate(column) for column in zip(*full))
            found = first_maximum(tt, series)
            k = len(times)
            if found is None:  # (0.5, 0.2): the transient runs to the cap
                assert point.first_max == 0.0 and np.array_equal(times, every)
                continue
            assert point.first_max == found.value
            assert k < len(every) and np.array_equal(times, every[:k])
            assert first_maximum(tt[:k], series[:k]) == found
            if point.gamma > 0:  # the noisy path yields one sample at a time: none past the one after the maximum
                assert first_maximum(tt[: k - 1], series[: k - 1]) is None

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
        # the child imports the package this test imported, installed or not
        env = dict(os.environ, PYTHONPATH=str(Path(qc.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "qubitchain.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_degenerate_ground_start_writes_error(self, tmp_path):
        # At k_ini = 2 the N=8 ground doublet is split by 7.8e-11 only.
        cfg = small_config(
            chain={"n_qubits": 8, "epsilon": 0.0, "delta": 0.1},
            initial_state="ground_of_k_ini",
            quench={"k_ini": 2.0, "k_fin": 0.025},
            t_max=1.0,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        error = json.loads((out / "error.json").read_text())
        assert error["type"] == "ValueError"
        assert re.fullmatch(r"member 0: the ground state at k_ini is degenerate \(gap \d\.\d{3}e-\d\d\)", error["error"])
        assert not (out / "manifest.json").exists()
        shipped = ScenarioConfig.from_dict(json.loads((CONFIG_DIR / "quench_from_ground.json").read_text()))
        assert run_scenario(replace(shipped, t_max=0.5)).times[-1] == pytest.approx(0.5)

    def test_run_command_end_to_end(self, tmp_path):
        cfg = small_config(t_max=5.0).to_dict()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        proc = self._run("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()
        assert "first-maximum" in proc.stdout

    def test_solver_override_keeps_the_sample_grid(self, tmp_path):
        # --solver switches only the solver: both step at the config's dt.
        noise = {"gamma": 0.01, "n_thermal": 0.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(t_max=2.0, dt=0.1, sample_every=5, noise=noise).to_dict()))
        times = {}
        for solver in ("exact", "mps"):
            out = tmp_path / solver
            assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--solver", solver]) == 0
            with open(out / "timeseries.csv", newline="") as fh:
                times[solver] = [float(row["time"]) for row in csv.DictReader(fh)]
        assert times["mps"] == times["exact"]
        assert times["exact"] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0], abs=1e-12)

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
        cfg["chain"] = {"n_qubits": 15, "epsilon": 0.0, "delta": 0.1}
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        proc = self._run("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 1
        error = json.loads((out / "error.json").read_text())
        assert error["type"] == "ConfigError"
        assert re.search(r"exact solver .* estimated peak [\d.]+ GiB exceeds the [\d.]+ GiB", error["error"])

    @pytest.mark.parametrize("threads", ["-2", "0"])
    def test_nonpositive_threads_write_error(self, tmp_path, threads):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(t_max=5.0).to_dict()))
        out = tmp_path / "out"
        proc = self._run("run", "--config", str(cfg_path), "--out", str(out), "--threads", threads)
        assert proc.returncode == 1
        error = json.loads((out / "error.json").read_text())
        assert "threads" in error["error"]
        assert not (out / "manifest.json").exists()

    def test_bad_config_writes_error_manifest(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"schema_version": 1, "name": "x"}))
        out = tmp_path / "out"
        proc = self._run("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 1
        error = json.loads((out / "error.json").read_text())
        assert error["type"] == "ConfigError"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"t_max": 5.0},
            {
                "chain": {"n_qubits": 6, "epsilon": 0.0, "delta": 0.1},
                "noise": {"gamma": 0.01, "n_thermal": 0.0},
                "solver": {"kind": "mps", "bond_dim": 16},
                "t_max": 1.0,
            },
        ],
        ids=["noiseless_exact", "noisy_mps"],
    )
    def test_run_never_imports_scipy(self, tmp_path, overrides):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(**overrides).to_dict()))
        run = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        script = (
            "import sys; from qubitchain.cli import main; "
            f"code = main({run!r}); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qc.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_scan_never_imports_scipy_solvers(self, tmp_path):
        # The steady states are solved in numpy: scipy.sparse holds the generator, nothing factors it.
        cfg_path = tmp_path / "scan.json"
        cfg_path.write_text(json.dumps(SMALL_SCAN))
        scan = ["scan", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        script = (
            "import sys; from qubitchain.cli import main; "
            f"code = main({scan!r}); "
            "print(code, [m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qc.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_scan_command(self, tmp_path):
        scan_cfg = {
            "name": "scan-cli",
            "chain": {"n_qubits": 3, "epsilon": 0.0, "delta": 0.1},
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
