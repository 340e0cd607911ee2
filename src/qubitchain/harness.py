"""Scenario configuration and drivers for reproducible chain experiments.

A scenario bundles a chain template, an initial state, a coupling quench,
a noise model, optional static-disorder ensembles, a solver choice, and the
observables to record.  Configs are plain JSON documents (schema below) so
runs are diffable and hashable; :func:`run_scenario` executes one scenario
into a persistent run directory containing CSV time series, SVG charts, and
a manifest with seeds, checksums, and any warning flags.

Config schema (schema_version 1); "= x" marks an optional key and its default::

    {
      "schema_version": 1,                   # = 1
      "name": "generation-ideal",
      "chain": {"n_qubits": 8, "epsilon": 0.0, "delta": 0.1,   # scalars or
                "coupling": 0.025, "energy_unit_kelvin": 1.0},  # per site; = 1.0
      "initial_state": "product_eigen",      # or bell_head_eigen |
                                             #    ground_of_k_ini | thermal_of_k_ini
      "quench": {"k_ini": 0.0, "k_fin": 0.025},     # = 0.0 and the chain's coupling
      "noise": {"gamma": 0.01, "n_thermal": 0.0},   # = 0.0; or temperature_mk
      "initial_temperature_mk": null,        # thermal_of_k_ini only
      "disorder": {"fraction": 0.05, "targets": ["delta", "coupling"],
                   "ensemble_size": 1000},   # optional; ensemble_size = 1
      "solver": {"kind": "exact"},           # = exact; mps: "bond_dim" = 60, "dt" = 0.05
      "t_max": 50.0, "dt": 0.01, "sample_every": 25,
      "observables": {"pairs": [[1, 2], [1, 8]], "blocks": [],   # = []
                      "measures": ["e_n", "c2", "c2_opt"],       # = ["e_n"]
                      "frozen_axes": false},                     # = false
      "seed": 7
    }

The chain's coupling is replaced by quench.k_fin: it only sets the default
of k_fin.  Scan schema (schema_version 1), for :func:`steady_state_scan`::

    {
      "schema_version": 1, "name": "steady-scan",   # schema_version = 1
      "chain": {"n_qubits": 4, "epsilon": 0.0, "delta": 0.1},  # coupling optional:
      "coupling_ratios": [0.25, 1.5],        # each sets it to ratio x delta_1
      "gammas": [0.0, 0.001, 0.01, 0.1], "n_thermal": 0.1,
      "pair": [1, 2], "tol": 1e-8,           # = [1, 2] and 1e-8 (certified residual)
      "transient_t_max": 40.0, "transient_dt": 0.05   # = 40.0 and 0.05
    }

A scan accepts and ignores a seed.  Both kinds refuse unknown keys.

All energies are in units of E_C, times in 1/E_C; temperatures are given in
millikelvin and converted with the chain's energy_unit_kelvin, using the
splitting of site 1 for the thermal occupation.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .chain import (
    ChainSpec,
    DisorderSpec,
    QuenchSpec,
    build_hamiltonian_eigen,
    mixing_angles,
    parity_blocks,
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
    CorrelationMatrix,
    asymmetry_flags,
    bound_c1,
    bound_c2,
    bound_c2_optimized,
    c2_opt_defined,
    c2_opt_value,
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
# (d = 2^N).  Measured peak RSS above that of an N = 4 run, at N = 9..11:
# 12.2 arrays with noise (RK4 stages and the temporaries of
# LindbladGenerator.apply); 3.8/3.8/4.0 for a noiseless state vector over a
# full chunk of d samples with pairs (1, 2) and (1, N) (real H, half-size
# block eigh, the chunk of amplitudes and its reduction); 5.1/5.0/4.6 for a
# noiseless thermal state (its preparation, the eigenbasis blocks and one
# sample).  Each count below leaves about one spare.
_NOISY_ARRAYS, _PURE_ARRAYS, _MIXED_ARRAYS = 13, 5, 6
# Interpreter, numpy and scipy, counted once per process.
_PROCESS_BYTES = 128 * 2**20


def exact_member_bytes(n_qubits: int, noisy: bool, pure: bool = True) -> int:
    """Estimated peak bytes of one exact-solver member: RK4 on the density
    matrix if `noisy`, else a state vector (`pure`) or density matrix
    propagated in the eigenbasis of each parity block of H."""
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
    ensemble_size: int = 1

    def __post_init__(self):
        if self.ensemble_size < 1:
            raise ConfigError("ensemble_size must be >= 1")
        DisorderSpec(self.fraction, self.targets, 0)


def _section(data: dict, table: dict, what: str, cls: type | None = None) -> dict:
    """Keyword arguments from one config section, each value converted by `table`.

    Refuses keys outside the table, and a missing key for a field of `cls`
    without a default; an absent key takes the field's default.  A key
    whose converter is None is accepted and dropped.
    """
    unknown = set(data) - set(table)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for f in fields(cls) if cls else ():
        if f.name in table and f.name not in data and f.default is MISSING:
            raise ConfigError(f"missing config key: {f.name!r}")
    return {key: table[key](value) for key, value in data.items() if table[key] is not None}


def _build(cls: type, table: dict, what: str) -> Callable[[dict], object]:
    """Converter of one config section into the dataclass `cls`."""
    return lambda data: cls(**_section(data, table, what, cls))


def _as_given(value):
    return value


def _schema_version(value) -> int:
    if value != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {value}")
    return int(value)


def _pair(values) -> tuple[int, int]:
    i, j = values
    return int(i), int(j)


# Scalars broadcast per site; ChainSpec converts them.
_CHAIN = {"n_qubits": int, "epsilon": _as_given, "delta": _as_given, "coupling": _as_given, "energy_unit_kelvin": float}
_OBSERVABLES = {
    "pairs": lambda pairs: tuple(map(_pair, pairs)),
    "blocks": lambda blocks: tuple((_pair(a), _pair(b)) for a, b in blocks),
    "measures": tuple,
    "frozen_axes": bool,
}
_disorder = _build(DisorderConfig, {"fraction": float, "targets": tuple, "ensemble_size": int}, "disorder")

_SCENARIO = {
    "schema_version": _schema_version,
    "name": str,
    "chain": _build(ChainSpec, _CHAIN, "chain"),
    "initial_state": str,
    "quench": _build(QuenchSpec, {"k_ini": float, "k_fin": float}, "quench"),
    # The noise section stays a dict: temperature_mk needs the chain.
    "noise": lambda data: _section(data, {"gamma": float, "n_thermal": float, "temperature_mk": float}, "noise"),
    "initial_temperature_mk": _as_given,
    "disorder": lambda data: _disorder(data) if data else None,
    "solver": _build(SolverConfig, {"kind": str, "bond_dim": int, "dt": float}, "solver"),
    "t_max": float,
    "dt": float,
    "sample_every": int,
    "observables": _build(ObservablesConfig, _OBSERVABLES, "observables"),
    "seed": int,
}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    chain: ChainSpec
    initial_state: str
    t_max: float
    dt: float
    sample_every: int
    observables: ObservablesConfig
    seed: int
    quench: QuenchSpec | None = None  # None: from 0 to the chain's first coupling
    noise: NoiseSpec = NoiseSpec()
    solver: SolverConfig = SolverConfig("exact")
    disorder: DisorderConfig | None = None
    initial_temperature_mk: float | None = None
    noise_temperature_mk: float | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.quench is None:
            if not self.chain.coupling:
                raise ConfigError("a chain without couplings needs an explicit quench section")
            object.__setattr__(self, "quench", QuenchSpec(0.0, self.chain.coupling[0]))
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
        out = asdict(self)
        temperature = out.pop("noise_temperature_mk")
        if temperature is not None:
            out["noise"] = {"gamma": self.noise.gamma, "temperature_mk": temperature}
        return {key: value for key, value in out.items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        kwargs = _section(data, _SCENARIO, "config", cls)
        noise = kwargs.pop("noise", {})
        temperature = noise.pop("temperature_mk", None)
        if temperature is not None:
            if "n_thermal" in noise:
                raise ConfigError("noise takes n_thermal or temperature_mk, not both")
            chain = kwargs["chain"]
            omega1, kelvin = mixing_angles(chain).omega[0], chain.energy_unit_kelvin
            noise["n_thermal"] = nbar_from_temperature(omega1, temperature * 1e-3, kelvin)
        return cls(**kwargs, noise=NoiseSpec(**noise), noise_temperature_mk=temperature)


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
    dis = DisorderSpec(config.disorder.fraction, config.disorder.targets, member_seed(config.seed, member))
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


def _measure_pair(pair_state: ReducedState, xs: list[CorrelationMatrix] | None, measures) -> dict:
    """Each of `measures` at every sample of the stacked `pair_state`; `xs`
    holds its correlation matrices, one per sample."""
    out = {}
    if "e_n" in measures:
        out["e_n"] = log_negativity(pair_state, pair_state.sites[:1])
    if "c1" in measures:
        out["c1"] = [bound_c1(x) for x in xs]
    if "c2" in measures:
        out["c2"] = [bound_c2(x) for x in xs]
    if "c2_opt" in measures:
        out["c2_opt"] = [c2_opt_value(x) for x in xs]
    return out


def sample_grid(t_max: float, dt: float, sample_every: int) -> np.ndarray:
    """Sample times of every propagation path: every sample_every steps of dt, and the last step."""
    n_steps = int(round(t_max / dt))
    return np.array([k * dt for k in [*range(0, n_steps, sample_every), n_steps]])


Accessor = Callable[[tuple[int, ...]], ReducedState]


def propagate(
    state0: np.ndarray | MpsMixedState,
    h: np.ndarray | None,
    rates: RateSet,
    t_max: float,
    dt: float,
    sample_every: int = 1,
    engine: MixedTebdEngine | None = None,
    blocks: list[np.ndarray] | None = None,
) -> Iterator[tuple[np.ndarray, Accessor]]:
    """Propagate one state and yield (times, accessor) blocks that cover :func:`sample_grid` in order.

    The accessor maps ascending 1-based sites to the reduced density
    matrices at `times`, stacked as (len(times), 2^m, 2^m), and stays valid
    after later blocks are drawn.  With `engine`, `state0` is an
    MpsMixedState advanced by TEBD steps of `dt` and `h` is unused.
    Otherwise `state0` is a state vector or density matrix under the dense
    real Hamiltonian `h`: with noise it is integrated by RK4
    (:func:`qubitchain.lindblad.stream`).  TEBD and RK4 yield one sample
    per block.

    Without noise the state is propagated exactly in the eigenbasis of each
    diagonal block of `h`; `blocks` lists their basis indices (default one
    block of every index; :func:`qubitchain.chain.parity_blocks` gives the
    parity sectors).  A block whose component of `state0` is exactly zero
    is skipped.  A state vector is served up to 2^N samples per block, one
    GEMM per diagonal block; a density matrix one sample per block.
    """
    times = sample_grid(t_max, dt, sample_every)
    if engine is not None:
        state, done = state0, 0
        for k, t in enumerate(times):
            while done < int(round(t / dt)):
                state = engine.step(state)
                done += 1
            yield times[k : k + 1], partial(_mps_sample, state)
    elif rates.is_zero():
        yield from _propagate_unitary(state0, h, times, blocks or [np.arange(len(h))])
    else:
        rho0 = density_from_pure(state0) if state0.ndim == 1 else state0
        for t, rho, _, _ in stream(rho0, h, rates, t_max, dt, sample_every):
            yield np.array([t]), partial(reduce, rho[None])


def _mps_sample(state: MpsMixedState, sites) -> ReducedState:
    """Reduced state of one MPS sample, stacked as a block of one."""
    rs = reduced_sites_dm(state, sites)
    return ReducedState(rs.sites, rs.matrix[None])


def _propagate_unitary(
    state0: np.ndarray, h: np.ndarray, times: np.ndarray, blocks: list[np.ndarray]
) -> Iterator[tuple[np.ndarray, Accessor]]:
    """The noiseless branch of :func:`propagate`: exact phases in each block's real eigenbasis."""
    d = len(h)
    # A block that state0 does not reach (no nonzero row) is never diagonalized.
    eig = [(b, *np.linalg.eigh(h[np.ix_(b, b)])) for b in blocks if state0[b].any()]
    if state0.ndim == 1:
        parts = [(b, e, v, v.T @ state0[b]) for b, e, v in eig]
        # At most d samples at once: the amplitudes never outgrow one d x d array.
        for start in range(0, len(times), d):
            ts = times[start : start + d]
            psi = np.zeros((len(ts), d), dtype=complex)
            for b, e, v, c in parts:
                psi[:, b] = (np.exp(-1j * np.outer(ts, e)) * c) @ v.T
            yield ts, partial(reduce_statevector, psi)
    else:
        parts = [
            (a, ea, va, b, eb, vb, va.T @ state0[np.ix_(a, b)] @ vb)
            for a, ea, va in eig
            for b, eb, vb in eig
            if state0[np.ix_(a, b)].any()
        ]
        for k, t in enumerate(times):
            rho = np.zeros((1, d, d), dtype=complex)
            for a, ea, va, b, eb, vb, r in parts:
                phase_a, phase_b = np.exp(-1j * ea * t), np.exp(-1j * eb * t)
                rho[0][np.ix_(a, b)] = va @ (phase_a[:, None] * r * phase_b.conj()) @ vb.T
            yield times[k : k + 1], partial(reduce, rho)


def _run_member(config: ScenarioConfig, member: int, pair_series, block_series, asymmetry, flags, keep_correlations):
    """Measure one ensemble member into row `member` of the (members, times) series,
    including the pairs' correlation asymmetries where `asymmetry` has a series.

    Returns {pair: [CorrelationMatrix per sample]} with `keep_correlations`, else {}.
    """
    chain_fin = _member_chain(config, member)
    rates = rates_from_angles(mixing_angles(chain_fin), config.noise)
    engine = h = blocks = None
    if config.solver.kind == "mps":
        plan = TrotterPlan.build(config.solver.dt, order=4)
        engine = MixedTebdEngine(chain_fin, rates, plan, config.solver.bond_dim)
        ground = np.diag([1.0, 0.0]).astype(complex)
        state0 = mps_from_product([ground] * config.chain.n_qubits, bond_dim=config.solver.bond_dim)
    else:
        h = build_hamiltonian_eigen(chain_fin)
        blocks = parity_blocks(chain_fin)
        state0 = _prepare_initial(config, chain_fin)
    samples = propagate(state0, h, rates, config.t_max, config.step, config.sample_every, engine, blocks)

    measures = config.observables.measures
    need_x = keep_correlations or any(m in measures for m in ("c1", "c2", "c2_opt"))
    correlations = {p: [] for p in config.observables.pairs} if keep_correlations else {}
    done = 0
    for ts, acc in samples:
        rows = slice(done, done + len(ts))
        done += len(ts)
        for p in config.observables.pairs:
            rs = acc(p)
            xs = [correlation_matrix_from_pair(ReducedState(p, matrix)) for matrix in rs.matrix] if need_x else None
            for m, values in _measure_pair(rs, xs, measures).items():
                pair_series[p][m][member, rows] = values
            if p in asymmetry:
                asymmetry[p][member, rows] = [x.asymmetry for x in xs]
            if keep_correlations:
                correlations[p].extend(xs)
        for a, b in config.observables.blocks:
            block_series[(a, b)][member, rows] = log_negativity(acc(tuple(sorted(a + b))), a)
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
    asymmetry = {p: np.empty((members, len(times))) for p in pairs} if "c2_opt" in measures else {}
    flags: list[str] = []
    member_flags: list[list[str]] = [[] for _ in range(members)]
    frozen = config.observables.frozen_axes

    def one(m: int):
        return _run_member(config, m, pair_series, block_series, asymmetry, member_flags[m], frozen and m == 0)

    if threads > 1 and members > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            correlations = list(pool.map(one, range(members)))[0]
    else:
        correlations = [one(m) for m in range(members)][0]
    for mf in member_flags:
        flags.extend(mf)
    for p, a in asymmetry.items():
        flags.extend(asymmetry_flags(p, a))

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
        if not c2_opt_defined(x_ref.asymmetry):
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


_SCAN = {
    "schema_version": _schema_version,
    "name": str,
    # Every coupling becomes ratio x delta_1, so a scan chain may omit it.
    "chain": lambda data: _SCENARIO["chain"]({"coupling": 0.025, **data}),
    "gammas": lambda gammas: tuple(map(float, gammas)),
    "coupling_ratios": lambda ratios: tuple(map(float, ratios)),
    "n_thermal": float,
    "pair": _pair,
    "tol": float,
    "transient_t_max": float,
    "transient_dt": float,
    # A scan draws no random numbers; the master seed that generated configs
    # carry (the benchmark's among them) is accepted and has no effect.
    "seed": None,
}


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
    transient_t_max: float = 40.0
    transient_dt: float = 0.05
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not self.gammas or not self.coupling_ratios:
            raise ConfigError("scan grids must be non-empty")
        _check_exact_memory(self.chain.n_qubits, exact_member_bytes(self.chain.n_qubits, any(self.gammas)))

    @classmethod
    def from_dict(cls, data: dict) -> "ScanConfig":
        return cls(**_section(data, _SCAN, "scan config", cls))

    def to_dict(self) -> dict:
        return asdict(self)


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
        blocks = parity_blocks(chain)
        angles = mixing_angles(chain)
        row_values = []
        for gamma in config.gammas:
            noise = NoiseSpec(gamma, config.n_thermal)
            rates = rates_from_angles(angles, noise)
            samples = propagate(rho0_vec, h, rates, config.transient_t_max, config.transient_dt, sample, blocks=blocks)
            measured = [(ts, log_negativity(acc(config.pair), part)) for ts, acc in samples]
            times, series = (np.concatenate(column) for column in zip(*measured))
            fm = first_maximum(times, series)
            fm = fm.value if fm else 0.0
            if gamma == 0.0 or rates.is_zero():
                points.append(ScanPoint(ratio, gamma, math.nan, False, math.nan, fm, False))
                continue
            res = steady_state(h, rates, config.tol)
            en = log_negativity(reduce(res.state, config.pair), part)
            points.append(ScanPoint(ratio, gamma, en, res.converged, res.residual, fm, True))
            row_values.append(en)
        classifications[ratio] = classify_row(row_values) if row_values else "not_applicable"
    return ScanResult(config, points, classifications)
