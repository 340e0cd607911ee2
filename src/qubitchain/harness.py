"""Scenario configuration and drivers for reproducible chain experiments.

A scenario bundles a chain template, an initial state, a coupling quench,
a noise model, optional static-disorder ensembles, a solver choice, and the
observables to record.  Configs are plain JSON documents (schema below) so
runs are diffable and hashable; :func:`run_scenario` executes one scenario
into a persistent run directory containing CSV time series, SVG charts, and
a manifest with seeds, checksums, and any warning flags.

Config schema (schema_version 1)::

    {
      "schema_version": 1,
      "name": "generation-ideal",
      "chain": {"n_qubits": 8, "epsilon": 0.0, "delta": 0.1,
                "coupling": 0.025, "energy_unit_kelvin": 1.0},
      "initial_state": "product_eigen",      # or bell_head_eigen |
                                             #    ground_of_k_ini | thermal_of_k_ini
      "quench": {"k_ini": 0.0, "k_fin": 0.025},
      "noise": {"gamma": 0.01, "n_thermal": 0.0},   # or temperature_mk
      "initial_temperature_mk": null,        # thermal_of_k_ini only
      "disorder": {"fraction": 0.05, "targets": ["delta", "coupling"],
                   "ensemble_size": 1000},   # optional
      "solver": {"kind": "exact"},           # or {"kind": "mps",
                                             #     "bond_dim": 60, "dt": 0.05}
      "t_max": 50.0, "dt": 0.01, "sample_every": 25,
      "observables": {"pairs": [[1, 2], [1, 8]], "blocks": [],
                      "measures": ["e_n", "c2", "c2_opt"],
                      "frozen_axes": false},
      "seed": 7
    }

All energies are in units of E_C, times in 1/E_C; temperatures are given in
millikelvin and converted with the chain's energy_unit_kelvin, using the
splitting of site 1 for the thermal occupation.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .chain import (
    ChainSpec,
    DisorderSpec,
    QuenchSpec,
    build_hamiltonian_eigen,
    mixing_angles,
    sample_disorder,
)
from .lindblad import (
    NoiseSpec,
    RateSet,
    nbar_from_temperature,
    rates_from_angles,
    steady_state,
    stream,
)
from .mps import MixedTebdEngine, MpsMixedState, TrotterPlan, mps_from_product, reduced_sites_dm
from .negativity import ReducedState, log_negativity, reduce, reduce_statevector
from .states import density_from_pure, eigenbasis_bell_head, eigenbasis_product, ground_state, thermal_state
from .witness import (
    SYMMETRY_WARN_LIMIT,
    CorrelationMatrix,
    bound_c1,
    bound_c2,
    bound_c2_optimized,
    correlation_matrix_from_pair,
    frozen_axes_bound,
)

SCHEMA_VERSION = 1

INITIAL_STATES = ("product_eigen", "bell_head_eigen", "ground_of_k_ini", "thermal_of_k_ini")
MEASURES = ("e_n", "c1", "c2", "c2_opt")

FIRST_MAX_FLOOR = 1e-4
_FLUCTUATION_FLOOR = 1e-6


class ConfigError(ValueError):
    """Raised for malformed or inconsistent scenario configs."""


# Peak working set of one exact-solver member, in d x d complex arrays
# (d = 2^N).  Measured peak RSS above the 63 MB of an N = 4 run, at N = 9..11:
# 12.2 arrays with noise (RK4 stages and the temporaries of
# LindbladGenerator.apply), 5.1 for a noiseless state vector (H and eigh),
# 8.0 for a noiseless density matrix (H, eigh and the eigenbasis state).
# Each count below leaves about one spare.
_NOISY_ARRAYS, _PURE_ARRAYS, _MIXED_ARRAYS = 13, 6, 9
# Interpreter, numpy and scipy, counted once per process.
_PROCESS_BYTES = 128 * 2**20


def exact_member_bytes(n_qubits: int, noisy: bool, pure: bool = True) -> int:
    """Estimated peak bytes of one exact-solver member: RK4 on the density
    matrix if `noisy`, else a state vector (`pure`) or density matrix
    propagated in the eigenbasis of H."""
    arrays = _NOISY_ARRAYS if noisy else _PURE_ARRAYS if pure else _MIXED_ARRAYS
    return arrays * 16 * 4**n_qubits


def _check_exact_memory(n_qubits: int, member_bytes: int, members_at_once: int = 1) -> None:
    need = _PROCESS_BYTES + members_at_once * member_bytes
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"exact solver refused for N={n_qubits} with {members_at_once} member(s) at once: estimated "
            f"peak {need / 2**30:.1f} GiB exceeds the {have / 2**30:.1f} GiB of physical memory; use the mps solver"
        )


@dataclass(frozen=True)
class SolverConfig:
    kind: str
    bond_dim: int = 60
    dt: float = 0.05

    def __post_init__(self):
        if self.kind not in ("exact", "mps"):
            raise ConfigError(f"solver kind must be 'exact' or 'mps', got {self.kind!r}")
        if self.bond_dim < 1:
            raise ConfigError("bond_dim must be >= 1")
        if self.dt <= 0:
            raise ConfigError("solver dt must be > 0")


@dataclass(frozen=True)
class ObservablesConfig:
    pairs: tuple[tuple[int, int], ...]
    blocks: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()
    measures: tuple[str, ...] = ("e_n",)
    frozen_axes: bool = False

    def __post_init__(self):
        for m in self.measures:
            if m not in MEASURES:
                raise ConfigError(f"unknown measure {m!r}; choose from {MEASURES}")
        for i, j in self.pairs:
            if i >= j:
                raise ConfigError(f"pair ({i}, {j}) must be ordered i < j")
        if self.frozen_axes and "e_n" not in self.measures:
            raise ConfigError("frozen_axes mode requires the e_n measure")


@dataclass(frozen=True)
class DisorderConfig:
    fraction: float
    targets: tuple[str, ...]
    ensemble_size: int

    def __post_init__(self):
        if self.ensemble_size < 1:
            raise ConfigError("ensemble_size must be >= 1")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    chain: ChainSpec
    initial_state: str
    quench: QuenchSpec
    noise: NoiseSpec
    solver: SolverConfig
    t_max: float
    dt: float
    sample_every: int
    observables: ObservablesConfig
    seed: int
    disorder: DisorderConfig | None = None
    initial_temperature_mk: float | None = None
    noise_temperature_mk: float | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}")
        if self.initial_state not in INITIAL_STATES:
            raise ConfigError(f"initial_state must be one of {INITIAL_STATES}")
        if self.t_max <= 0 or self.dt <= 0 or self.sample_every < 1:
            raise ConfigError("t_max, dt must be > 0 and sample_every >= 1")
        n = self.chain.n_qubits
        if self.solver.kind == "exact":
            _check_exact_memory(n, self.member_bytes)
        if self.solver.kind == "mps" and self.initial_state != "product_eigen":
            raise ConfigError("the mps solver supports product_eigen initial states only")
        if self.initial_state == "thermal_of_k_ini" and not self.initial_temperature_mk:
            raise ConfigError("thermal_of_k_ini requires initial_temperature_mk")
        for i, j in self.observables.pairs:
            if not (1 <= i < j <= n):
                raise ConfigError(f"pair ({i}, {j}) outside chain of {n} sites")
        for block_a, block_b in self.observables.blocks:
            sites = tuple(block_a) + tuple(block_b)
            if len(set(sites)) != 4 or any(not 1 <= s <= n for s in sites):
                raise ConfigError(f"blocks {block_a}, {block_b} invalid for {n} sites")

    @property
    def ensemble_size(self) -> int:
        return self.disorder.ensemble_size if self.disorder else 1

    @property
    def member_bytes(self) -> int:
        mixed = self.initial_state == "thermal_of_k_ini"
        return exact_member_bytes(self.chain.n_qubits, self.noise.gamma > 0, pure=not mixed)

    @property
    def step(self) -> float:
        """Time step of the configured solver; the sample grid is spaced in it."""
        return self.dt if self.solver.kind == "exact" else self.solver.dt

    def to_dict(self) -> dict:
        chain = {
            "n_qubits": self.chain.n_qubits,
            "epsilon": list(self.chain.epsilon),
            "delta": list(self.chain.delta),
            "coupling": list(self.chain.coupling),
            "energy_unit_kelvin": self.chain.energy_unit_kelvin,
        }
        out = {
            "schema_version": self.schema_version,
            "name": self.name,
            "chain": chain,
            "initial_state": self.initial_state,
            "quench": {"k_ini": self.quench.k_ini, "k_fin": self.quench.k_fin},
            "noise": {"gamma": self.noise.gamma, "n_thermal": self.noise.n_thermal},
            "solver": {"kind": self.solver.kind, "bond_dim": self.solver.bond_dim, "dt": self.solver.dt},
            "t_max": self.t_max,
            "dt": self.dt,
            "sample_every": self.sample_every,
            "observables": {
                "pairs": [list(p) for p in self.observables.pairs],
                "blocks": [[list(a), list(b)] for a, b in self.observables.blocks],
                "measures": list(self.observables.measures),
                "frozen_axes": self.observables.frozen_axes,
            },
            "seed": self.seed,
        }
        if self.disorder:
            out["disorder"] = {
                "fraction": self.disorder.fraction,
                "targets": list(self.disorder.targets),
                "ensemble_size": self.disorder.ensemble_size,
            }
        if self.initial_temperature_mk is not None:
            out["initial_temperature_mk"] = self.initial_temperature_mk
        if self.noise_temperature_mk is not None:
            out["noise"] = {"gamma": self.noise.gamma, "temperature_mk": self.noise_temperature_mk}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        data = dict(data)
        known = {
            "schema_version",
            "name",
            "chain",
            "initial_state",
            "quench",
            "noise",
            "initial_temperature_mk",
            "disorder",
            "solver",
            "t_max",
            "dt",
            "sample_every",
            "observables",
            "seed",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            chain_d = dict(data["chain"])
            chain = ChainSpec(
                n_qubits=int(chain_d.pop("n_qubits")),
                epsilon=chain_d.pop("epsilon"),
                delta=chain_d.pop("delta"),
                coupling=chain_d.pop("coupling"),
                energy_unit_kelvin=float(chain_d.pop("energy_unit_kelvin", 1.0)),
            )
            if chain_d:
                raise ConfigError(f"unknown chain keys: {sorted(chain_d)}")
            quench_d = data.get("quench", {"k_ini": 0.0, "k_fin": chain.coupling[0]})
            quench = QuenchSpec(float(quench_d["k_ini"]), float(quench_d["k_fin"]))

            noise_d = dict(data.get("noise", {"gamma": 0.0}))
            gamma = float(noise_d.pop("gamma", 0.0))
            noise_temperature_mk = None
            if "temperature_mk" in noise_d:
                noise_temperature_mk = float(noise_d.pop("temperature_mk"))
                omega1 = mixing_angles(chain).omega[0]
                n_thermal = nbar_from_temperature(
                    omega1, noise_temperature_mk * 1e-3, chain.energy_unit_kelvin
                )
            else:
                n_thermal = float(noise_d.pop("n_thermal", 0.0))
            if noise_d:
                raise ConfigError(f"unknown noise keys: {sorted(noise_d)}")

            disorder = None
            if data.get("disorder"):
                dd = dict(data["disorder"])
                disorder = DisorderConfig(
                    fraction=float(dd.pop("fraction")),
                    targets=tuple(dd.pop("targets")),
                    ensemble_size=int(dd.pop("ensemble_size", 1)),
                )
                if dd:
                    raise ConfigError(f"unknown disorder keys: {sorted(dd)}")
                DisorderSpec(disorder.fraction, frozenset(disorder.targets), 0)

            solver_d = dict(data.get("solver", {"kind": "exact"}))
            solver = SolverConfig(
                kind=str(solver_d.pop("kind")),
                bond_dim=int(solver_d.pop("bond_dim", 60)),
                dt=float(solver_d.pop("dt", 0.05)),
            )
            if solver_d:
                raise ConfigError(f"unknown solver keys: {sorted(solver_d)}")

            obs_d = dict(data["observables"])
            observables = ObservablesConfig(
                pairs=tuple((int(i), int(j)) for i, j in obs_d.pop("pairs")),
                blocks=tuple(
                    ((int(a[0]), int(a[1])), (int(b[0]), int(b[1])))
                    for a, b in obs_d.pop("blocks", ())
                ),
                measures=tuple(obs_d.pop("measures", ("e_n",))),
                frozen_axes=bool(obs_d.pop("frozen_axes", False)),
            )
            if obs_d:
                raise ConfigError(f"unknown observables keys: {sorted(obs_d)}")

            return cls(
                name=str(data["name"]),
                chain=chain,
                initial_state=str(data["initial_state"]),
                quench=quench,
                noise=NoiseSpec(gamma, n_thermal),
                solver=solver,
                t_max=float(data["t_max"]),
                dt=float(data["dt"]),
                sample_every=int(data["sample_every"]),
                observables=observables,
                seed=int(data["seed"]),
                disorder=disorder,
                initial_temperature_mk=data.get("initial_temperature_mk"),
                noise_temperature_mk=noise_temperature_mk,
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from exc


@dataclass(frozen=True)
class FirstMaximum:
    """Parabolically refined first strict local maximum of a sampled series."""

    value: float
    time: float


def first_maximum(times: np.ndarray, series: np.ndarray, floor: float = FIRST_MAX_FLOOR) -> FirstMaximum | None:
    """First strict local maximum above `floor`, refined across three samples."""
    for k in range(1, len(series) - 1):
        if series[k] > floor and series[k] >= series[k - 1] and series[k] > series[k + 1]:
            y0, y1, y2 = series[k - 1], series[k], series[k + 1]
            denom = y0 - 2.0 * y1 + y2
            shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
            step = times[k] - times[k - 1]
            return FirstMaximum(float(y1 - 0.25 * (y0 - y2) * shift), float(times[k] + shift * step))
    return None


@dataclass
class EnsembleStats:
    """Mean/std series and first-maximum statistics per tracked pair."""

    mean: dict[tuple[int, int], dict[str, np.ndarray]]
    std: dict[tuple[int, int], dict[str, np.ndarray]]
    first_max_values: dict[tuple[int, int], np.ndarray]
    first_max_times: dict[tuple[int, int], np.ndarray]

    def first_max_mean(self, pair) -> float:
        vals = self.first_max_values[tuple(pair)]
        vals = vals[~np.isnan(vals)]
        return float(vals.mean()) if vals.size else math.nan

    def first_max_mean_time(self, pair) -> float:
        vals = self.first_max_times[tuple(pair)]
        vals = vals[~np.isnan(vals)]
        return float(vals.mean()) if vals.size else math.nan

    def relative_fluctuation(self, pair) -> float:
        """std/mean of the first-maximum value; NaN below the detection floor."""
        vals = self.first_max_values[tuple(pair)]
        vals = vals[~np.isnan(vals)]
        if vals.size == 0 or vals.mean() <= _FLUCTUATION_FLOOR:
            return math.nan
        return float(vals.std() / vals.mean())


@dataclass
class ResultSet:
    """In-memory results of one scenario run."""

    config: ScenarioConfig
    times: np.ndarray
    pair_series: dict[tuple[int, int], dict[str, np.ndarray]]  # (members, times)
    block_series: dict[tuple, np.ndarray]
    stats: EnsembleStats
    flags: list[str]
    frozen_axes_series: dict[tuple[int, int], np.ndarray] | None = None
    frozen_axes_info: dict | None = None

    def mean_series(self, pair, measure: str = "e_n") -> np.ndarray:
        return self.stats.mean[tuple(pair)][measure]

    def member_series(self, pair, measure: str = "e_n") -> np.ndarray:
        return self.pair_series[tuple(pair)][measure]


def member_seed(master_seed: int, member: int) -> int:
    """Stable 64-bit per-member seed derived from the master seed."""
    words = np.random.SeedSequence([np.uint64(master_seed), np.uint64(member)]).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def _member_chain(config: ScenarioConfig, member: int) -> ChainSpec:
    template = config.chain.with_coupling(config.quench.k_fin)
    if config.disorder is None:
        return template
    dis = DisorderSpec(
        config.disorder.fraction,
        frozenset(config.disorder.targets),
        member_seed(config.seed, member),
    )
    return sample_disorder(template, dis)


def _initial_coupling_chain(config: ScenarioConfig, chain_fin: ChainSpec) -> ChainSpec:
    """Chain with the pre-quench couplings, keeping each bond's disorder factor."""
    k_ini, k_fin = config.quench.k_ini, config.quench.k_fin
    if k_fin == 0.0:
        return chain_fin.with_coupling(k_ini)
    return chain_fin.scale_coupling(k_ini / k_fin)


def _prepare_initial(config: ScenarioConfig, chain_fin: ChainSpec) -> np.ndarray:
    """Initial state of one member: a state vector, or a density matrix if mixed."""
    n = config.chain.n_qubits
    kind = config.initial_state
    if kind == "product_eigen":
        return eigenbasis_product(n)
    if kind == "bell_head_eigen":
        return eigenbasis_bell_head(n)
    chain_ini = _initial_coupling_chain(config, chain_fin)
    h_ini = build_hamiltonian_eigen(chain_ini)
    if kind == "ground_of_k_ini":
        return ground_state(h_ini).vector
    return thermal_state(h_ini, config.initial_temperature_mk * 1e-3, config.chain.energy_unit_kelvin)


def _measure_pair(pair_state: ReducedState, x: CorrelationMatrix | None, measures, flags: list[str]) -> dict[str, float]:
    out = {}
    if "e_n" in measures:
        out["e_n"] = log_negativity(pair_state, (pair_state.sites[0],))
    if "c1" in measures:
        out["c1"] = bound_c1(x)
    if "c2" in measures:
        out["c2"] = bound_c2(x)
    if "c2_opt" in measures:
        if x.asymmetry < SYMMETRY_WARN_LIMIT:
            out["c2_opt"] = bound_c2_optimized(x).value
        else:
            out["c2_opt"] = math.nan
            flags.append(
                f"c2_opt skipped for pair {x.sites}: asymmetry {x.asymmetry:.2e}"
            )
    return out


def sample_grid(t_max: float, dt: float, sample_every: int) -> np.ndarray:
    """Sample times of every propagation path: every sample_every steps of dt, and the last step."""
    n_steps = int(round(t_max / dt))
    return np.array([k * dt for k in [*range(0, n_steps, sample_every), n_steps]])


def propagate(
    state0: np.ndarray | MpsMixedState,
    h: np.ndarray | None,
    rates: RateSet,
    t_max: float,
    dt: float,
    sample_every: int = 1,
    engine: MixedTebdEngine | None = None,
) -> Iterator[tuple[float, Callable[[tuple[int, ...]], ReducedState]]]:
    """Propagate one state and yield (t, accessor) at each time of :func:`sample_grid`.

    The accessor maps ascending 1-based sites to the reduced density matrix
    at t and stays valid after later samples are drawn.  With `engine`,
    `state0` is an MpsMixedState advanced by TEBD steps of `dt` and `h` is
    unused.  Otherwise `state0` is a state vector or density matrix under
    the dense Hamiltonian `h`: without noise it is propagated exactly in the
    eigenbasis of `h`, with noise by RK4 (:func:`qubitchain.lindblad.stream`).
    """
    times = sample_grid(t_max, dt, sample_every)
    if engine is not None:
        state, done = state0, 0
        for t in times:
            while done < int(round(t / dt)):
                state = engine.step(state)
                done += 1
            yield t, partial(reduced_sites_dm, state)
    elif rates.is_zero():
        energies, vectors = np.linalg.eigh(h)
        if state0.ndim == 1:
            coeff = vectors.conj().T @ state0
            for t in times:
                yield t, partial(reduce_statevector, vectors @ (np.exp(-1j * energies * t) * coeff))
        else:
            rho_eig = vectors.conj().T @ state0 @ vectors
            for t in times:
                phase = np.exp(-1j * energies * t)
                rho = vectors @ (phase[:, None] * rho_eig * phase.conj()[None, :]) @ vectors.conj().T
                yield t, partial(reduce, rho)
    else:
        rho0 = density_from_pure(state0) if state0.ndim == 1 else state0
        for t, rho, _, _ in stream(rho0, h, rates, t_max, dt, sample_every):
            yield t, partial(reduce, rho)


def _run_member(config: ScenarioConfig, member: int, pair_series, block_series, flags, keep_correlations):
    """Measure one ensemble member into row `member` of the (members, times) series.

    Returns {pair: [CorrelationMatrix per sample]} with `keep_correlations`, else {}.
    """
    chain_fin = _member_chain(config, member)
    rates = rates_from_angles(mixing_angles(chain_fin), config.noise)
    engine = h = None
    if config.solver.kind == "mps":
        plan = TrotterPlan.build(config.solver.dt, order=4)
        engine = MixedTebdEngine(chain_fin, rates, plan, config.solver.bond_dim)
        ground = np.diag([1.0, 0.0]).astype(complex)
        state0 = mps_from_product([ground] * config.chain.n_qubits, bond_dim=config.solver.bond_dim)
    else:
        h = build_hamiltonian_eigen(chain_fin)
        state0 = _prepare_initial(config, chain_fin)
    samples = propagate(state0, h, rates, config.t_max, config.step, config.sample_every, engine)

    measures = config.observables.measures
    need_x = keep_correlations or any(m in measures for m in ("c1", "c2", "c2_opt"))
    correlations = {p: [] for p in config.observables.pairs} if keep_correlations else {}
    for k, (_, acc) in enumerate(samples):
        for p in config.observables.pairs:
            rs = acc(p)
            x = correlation_matrix_from_pair(rs) if need_x else None
            for m, value in _measure_pair(rs, x, measures, flags).items():
                pair_series[p][m][member, k] = value
            if keep_correlations:
                correlations[p].append(x)
        for a, b in config.observables.blocks:
            block_series[(a, b)][member, k] = log_negativity(acc(tuple(sorted(a + b))), a)
    if engine is not None:
        if engine.flagged_steps:
            flags.append(
                f"mps truncation ceiling exceeded on {engine.flagged_steps} steps "
                f"(total discarded weight {engine.truncation_weight:.3e})"
            )
        flags.append(f"mps total truncation weight {engine.truncation_weight:.3e}")
    return correlations


def run_scenario(config: ScenarioConfig, threads: int = 1) -> ResultSet:
    """Execute every ensemble member and aggregate the observables.

    Aggregation is indexed by member, so results do not depend on `threads`.
    """
    times = sample_grid(config.t_max, config.step, config.sample_every)
    members = config.ensemble_size
    if config.solver.kind == "exact":
        _check_exact_memory(config.chain.n_qubits, config.member_bytes, min(threads, members))
    pairs = config.observables.pairs
    measures = config.observables.measures
    pair_series = {p: {m: np.empty((members, len(times))) for m in measures} for p in pairs}
    block_series = {b: np.empty((members, len(times))) for b in config.observables.blocks}
    flags: list[str] = []
    member_flags: list[list[str]] = [[] for _ in range(members)]
    frozen = config.observables.frozen_axes

    def one(m: int):
        return _run_member(config, m, pair_series, block_series, member_flags[m], frozen and m == 0)

    if threads > 1 and members > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            correlations = list(pool.map(one, range(members)))[0]
    else:
        correlations = [one(m) for m in range(members)][0]
    for mf in member_flags:
        flags.extend(mf)

    # nanmean over a column with no evaluable member is NaN by design
    # (c2_opt under the symmetrization policy); silence the numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = {p: {m: np.nanmean(pair_series[p][m], axis=0) for m in measures} for p in pairs}
        std = {p: {m: np.nanstd(pair_series[p][m], axis=0) for m in measures} for p in pairs}

    fm_values = {}
    fm_times = {}
    for p in pairs:
        if "e_n" in measures:
            vals, tvals = [], []
            for k in range(members):
                fm = first_maximum(times, pair_series[p]["e_n"][k])
                vals.append(fm.value if fm else math.nan)
                tvals.append(fm.time if fm else math.nan)
            fm_values[p] = np.array(vals)
            fm_times[p] = np.array(tvals)
        else:
            fm_values[p] = np.full(members, math.nan)
            fm_times[p] = np.full(members, math.nan)

    stats = EnsembleStats(mean, std, fm_values, fm_times)
    frozen_series, frozen_info = _frozen_axes(times, pair_series, correlations, flags) if frozen else (None, None)
    return ResultSet(config, times, pair_series, block_series, stats, flags, frozen_series, frozen_info)


def _frozen_axes(times, pair_series, correlations, flags: list[str]):
    """Plain bound along axes frozen at each pair's E_N peak: (series, info).

    Reads the first ensemble member's per-sample correlation matrices (axes
    freezing is a single-run measurement protocol, not an ensemble statistic).
    """
    series: dict[tuple[int, int], np.ndarray] = {}
    info: dict = {}
    for p, xs in correlations.items():
        ref_idx = int(np.nanargmax(pair_series[p]["e_n"][0]))
        x_ref = xs[ref_idx]
        if x_ref.asymmetry >= SYMMETRY_WARN_LIMIT:
            flags.append(
                f"frozen axes unavailable for pair {p}: reference asymmetry {x_ref.asymmetry:.2e}"
            )
            series[p] = np.full(len(xs), math.nan)
            continue
        axes = bound_c2_optimized(x_ref).axes
        series[p] = np.array([frozen_axes_bound(x, axes) for x in xs])
        info[str(list(p))] = {
            "reference_time": float(times[ref_idx]),
            "axes": [[float(v) for v in axis] for axis in axes],
        }
    return series, info


@dataclass(frozen=True)
class ScanConfig:
    """Steady-state scan over a noise-strength grid and coupling ratios."""

    name: str
    chain: ChainSpec
    gammas: tuple[float, ...]
    coupling_ratios: tuple[float, ...]  # K / delta of site 1
    n_thermal: float
    pair: tuple[int, int] = (1, 2)
    tol: float = 1e-8
    t_cap: float = 2e4
    transient_t_max: float = 40.0
    transient_dt: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not self.gammas or not self.coupling_ratios:
            raise ConfigError("scan grids must be non-empty")
        _check_exact_memory(self.chain.n_qubits, exact_member_bytes(self.chain.n_qubits, any(self.gammas)))

    @classmethod
    def from_dict(cls, data: dict) -> "ScanConfig":
        data = dict(data)
        if data.pop("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError("unsupported schema_version")
        chain_d = data.pop("chain")
        chain = ChainSpec(
            n_qubits=int(chain_d["n_qubits"]),
            epsilon=chain_d["epsilon"],
            delta=chain_d["delta"],
            coupling=chain_d.get("coupling", 0.025),
            energy_unit_kelvin=float(chain_d.get("energy_unit_kelvin", 1.0)),
        )
        out = cls(
            name=str(data.pop("name")),
            chain=chain,
            gammas=tuple(float(g) for g in data.pop("gammas")),
            coupling_ratios=tuple(float(r) for r in data.pop("coupling_ratios")),
            n_thermal=float(data.pop("n_thermal")),
            pair=tuple(int(s) for s in data.pop("pair", (1, 2))),
            tol=float(data.pop("tol", 1e-8)),
            t_cap=float(data.pop("t_cap", 2e4)),
            transient_t_max=float(data.pop("transient_t_max", 40.0)),
            transient_dt=float(data.pop("transient_dt", 0.05)),
            seed=int(data.pop("seed", 0)),
        )
        if data:
            raise ConfigError(f"unknown scan config keys: {sorted(data)}")
        return out

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "chain": {
                "n_qubits": self.chain.n_qubits,
                "epsilon": list(self.chain.epsilon),
                "delta": list(self.chain.delta),
                "coupling": list(self.chain.coupling),
                "energy_unit_kelvin": self.chain.energy_unit_kelvin,
            },
            "gammas": list(self.gammas),
            "coupling_ratios": list(self.coupling_ratios),
            "n_thermal": self.n_thermal,
            "pair": list(self.pair),
            "tol": self.tol,
            "t_cap": self.t_cap,
            "transient_t_max": self.transient_t_max,
            "transient_dt": self.transient_dt,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ScanPoint:
    coupling_ratio: float
    gamma: float
    steady_e_n: float  # NaN for excluded (gamma == 0) points
    converged: bool
    residual: float
    first_max: float
    applicable: bool


ZERO_CLASS_FLOOR = 1e-6


def classify_row(values: list[float], floor: float = ZERO_CLASS_FLOOR) -> str:
    """Classify steady E_N vs noise strength: zero, monotone, or non-monotone.

    Non-monotone means entanglement absent below some threshold but present
    above it, or any strict increase along the grid.
    """
    if all(v < floor for v in values):
        return "zero"
    rises = any(b > max(a, floor) + floor for a, b in zip(values, values[1:]))
    if rises:
        return "non_monotone"
    return "monotone_decreasing"


@dataclass
class ScanResult:
    config: ScanConfig
    points: list[ScanPoint]
    classifications: dict[float, str]  # coupling_ratio -> class

    def row(self, ratio: float) -> list[ScanPoint]:
        return [p for p in self.points if p.coupling_ratio == ratio]


def steady_state_scan(config: ScanConfig) -> ScanResult:
    """Certified steady-state E_N over the (coupling ratio x Gamma) grid.

    Gamma = 0 points are reported as not applicable (no steady state without
    dissipation).  Each point also records the first transient maximum so
    the short-time monotonicity can be checked alongside.
    """
    points: list[ScanPoint] = []
    classifications: dict[float, str] = {}
    rho0_vec = eigenbasis_product(config.chain.n_qubits)
    sample = max(1, int(round(0.5 / config.transient_dt)))
    part = (config.pair[0],)
    for ratio in config.coupling_ratios:
        chain = config.chain.with_coupling(ratio * config.chain.delta[0])
        h = build_hamiltonian_eigen(chain)
        angles = mixing_angles(chain)
        row_values = []
        for gamma in config.gammas:
            noise = NoiseSpec(gamma, config.n_thermal)
            rates = rates_from_angles(angles, noise)
            samples = propagate(rho0_vec, h, rates, config.transient_t_max, config.transient_dt, sample)
            times, series = zip(*((t, log_negativity(acc(config.pair), part)) for t, acc in samples))
            fm = first_maximum(times, series)
            fm = fm.value if fm else 0.0
            if gamma == 0.0 or rates.is_zero():
                points.append(ScanPoint(ratio, gamma, math.nan, False, math.nan, fm, False))
                continue
            res = steady_state(density_from_pure(rho0_vec), h, rates, config.tol, config.t_cap)
            en = log_negativity(reduce(res.state, config.pair), part)
            points.append(ScanPoint(ratio, gamma, en, res.converged, res.residual, fm, True))
            row_values.append(en)
        classifications[ratio] = classify_row(row_values) if row_values else "not_applicable"
    return ScanResult(config, points, classifications)
