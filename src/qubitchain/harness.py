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
      "chain": {"n_qubits": 8, "epsilon": 0.0, "delta": 0.1,   # scalars or per site;
                "energy_unit_kelvin": 1.0},                     # = 1.0; no couplings
      "initial_state": "product_eigen",      # or bell_head_eigen |
                                             #    ground_of_k_ini | thermal_of_k_ini
      "quench": {"k_ini": 0.0, "k_fin": 0.025},     # every bond runs at k_fin; k_ini
                                             # is nonzero only for the k_ini starts
      "noise": {"gamma": 0.01, "n_thermal": 0.0},   # = 0.0; or temperature_mk
      "initial_temperature_mk": 30.0,        # thermal_of_k_ini only, and required there
      "disorder": {"fraction": 0.05, "targets": ["delta", "coupling"],
                   "ensemble_size": 1000},   # optional; ensemble_size = 1
      "solver": {"kind": "exact"},           # = exact; mps: "bond_dim" = 60
      "t_max": 50.0, "dt": 0.01, "sample_every": 25,   # samples every 25 dt and at t_max, a whole
                                             # number of dt; mps steps at dt
      "observables": {"pairs": [[1, 2], [1, 8]], "blocks": [],   # = []
                      "measures": ["e_n", "c2", "c2_opt"],       # = ["e_n"]
                      "frozen_axes": false},                     # = false
      "seed": 7
    }

The chain is an uncoupled template and the solver has no time step of its own.
A member's one disorder draw scales its couplings at k_ini and at k_fin alike.
Scan schema (schema_version 1), for :func:`steady_state_scan`::

    {
      "schema_version": 1, "name": "steady-scan",   # schema_version = 1
      "chain": {"n_qubits": 4, "epsilon": 0.0, "delta": 0.1},
      "coupling_ratios": [0.25, 1.5],        # each sets every bond to ratio x delta_1; distinct
      "gammas": [0.0, 0.001, 0.01, 0.1], "n_thermal": 0.1,   # gammas strictly ascending
      "pair": [1, 2], "tol": 1e-8,           # = [1, 2] and 1e-8 (certified residual)
      "transient_t_max": 40.0                # = 40.0 (a cap, a multiple of 0.5)
    }

Each point's transient is sampled every 0.5 and stops at its first maximum
of E_N, so transient_t_max is only reached by a point that has none.  A scan accepts
and ignores a seed.  Both kinds refuse unknown keys.

All energies are in units of E_C, times in 1/E_C; temperatures are given in
millikelvin and converted with the chain's energy_unit_kelvin, using the
splitting of site 1 for the thermal occupation.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import MISSING, asdict, dataclass, fields
from functools import lru_cache, partial
from typing import Callable, Iterator

import numpy as np

from .chain import (
    ChainSpec,
    DisorderSpec,
    HamiltonianBlocks,
    QuenchSpec,
    build_hamiltonian_eigen,
    mixing_angles,
    require_real_symmetric,
    sample_disorder,
)
from .lindblad import (
    NoiseSpec,
    RateSet,
    block_stack,
    couples_blocks,
    block_matrix,
    density,
    grid_steps,
    nbar_from_temperature,
    rates_from_angles,
    sample_grid,
    steady_state,
    stream,
)
from .mps import MixedTebdEngine, MpsMixedState, mps_from_product, reduced_sites_dm
from .negativity import ReducedState, log_negativity, reduce, reduce_blocks, reduce_statevector
from .states import density_from_pure, eigenbasis_bell_head, eigenbasis_product, ground_state, thermal_state
from .witness import (
    asymmetry,
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


def _check_grid(key: str, t_max: float, dt: float) -> None:
    """Refuse a `t_max` that :func:`sample_grid` would not end at."""
    try:
        grid_steps(t_max, dt)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


# Peak working set of one exact-solver member.  Measured peak RSS above
# that of an N = 4 run.  With noise, in real arrays the size of the
# propagated sector (d^2/2 entries with two parity blocks, d^2 with one;
# d = 2^N; 8 bytes an entry, the state in real form), at N = 9/10:
# 18.9/20.0 from a product state and 20.5/19.6 from a thermal one with two
# blocks, and 22.0/20.1 and 20.5/19.5 with one.  Of these, the sparse
# dissipator is 9.5 at N = 10 and grows by 0.75 per site.
# Without noise, in complex d x d arrays, at N = 9..11: 3.6/3.5/3.5 with
# two blocks and 4.6/4.5/4.0 with one for a state vector over a full chunk
# of d samples with pairs (1, 2) and (1, N) (real H and its scaled copy for
# the Chebyshev recurrence, the chunk of amplitudes, one block's amplitudes
# before they are scattered into it, and its reduction);
# 5.1/5.0/4.6 for a thermal state (its preparation, the eigenbasis blocks
# and one sample).  Each count below leaves at least one spare; with noise
# 3.0 at N = 9 and, by the dissipator's growth, about 2 at N = 14.
_NOISY_ARRAYS, _PURE_ARRAYS, _MIXED_ARRAYS = 25, 6, 6
# A scan point with noise, in real sector arrays, set by its steady-state
# solve: 66.0/58.0/58.9 at N = 8/9/10 (two blocks), of which the GMRES
# Krylov basis holds 31, the inverse Pauli rate matrix 2, the coherence
# scales 2, the eigenvectors 1.
_STEADY_ARRAYS = 68
# Interpreter, numpy and scipy, counted once per process.
_PROCESS_BYTES = 128 * 2**20


def exact_member_bytes(n_qubits: int, noisy: bool, pure: bool = True, sectors: int = 1) -> int:
    """Estimated peak bytes of one exact-solver member: the Taylor
    propagator (:func:`qubitchain.lindblad.stream`) on the density matrix's
    `sectors` parity blocks (2 when every epsilon_i = 0) if `noisy`, else a
    state vector (`pure`) propagated by the Chebyshev series of each parity
    block of H, or a density matrix propagated in their eigenbases."""
    if noisy:
        return _NOISY_ARRAYS * 8 * 4**n_qubits // sectors
    return (_PURE_ARRAYS if pure else _MIXED_ARRAYS) * 16 * 4**n_qubits


def _parity_sectors(chain: ChainSpec, disorder_targets=()) -> int:
    """Number of parity blocks of every member: 2 when each epsilon_i = 0 and
    stays so (no epsilon disorder), else 1 (see :func:`qubitchain.chain.build_hamiltonian_eigen`)."""
    return 1 if any(chain.epsilon) or "epsilon" in disorder_targets else 2


def _check_pair(pair: tuple[int, int], n: int) -> None:
    i, j = pair
    if not 1 <= i < j <= n:
        raise ConfigError(f"pair ({i}, {j}) must be ordered i < j within the chain of {n} sites")


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

    def __post_init__(self):
        if self.kind not in ("exact", "mps"):
            raise ConfigError(f"solver kind must be 'exact' or 'mps', got {self.kind!r}")
        if self.bond_dim < 1:
            raise ConfigError("bond_dim must be >= 1")


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


def _temperature_mk(value) -> float:
    """A temperature in mK: a finite number > 0, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ConfigError(f"temperatures must be finite numbers > 0 mK, got {value!r}")
    return float(value)


def _schema_version(value) -> int:
    if value != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {value}")
    return int(value)


def _pair(values) -> tuple[int, int]:
    i, j = values
    return int(i), int(j)


# Scalars broadcast per site; ChainSpec converts them.
_CHAIN = {"n_qubits": int, "epsilon": _as_given, "delta": _as_given, "energy_unit_kelvin": float}


def _chain(data: dict) -> ChainSpec:
    """The chain section as an uncoupled template: the quench or a scan ratio sets the couplings."""
    return ChainSpec(**_section(data, _CHAIN, "chain", ChainSpec), coupling=0.0)


_OBSERVABLES = {
    "pairs": lambda pairs: tuple(map(_pair, pairs)),
    "blocks": lambda blocks: tuple((_pair(a), _pair(b)) for a, b in blocks),
    "measures": tuple,
    "frozen_axes": bool,
}
_NOISE = {"gamma": float, "n_thermal": float, "temperature_mk": _temperature_mk}
_disorder = _build(DisorderConfig, {"fraction": float, "targets": tuple, "ensemble_size": int}, "disorder")

_SCENARIO = {
    "schema_version": _schema_version,
    "name": str,
    "chain": _chain,
    "initial_state": str,
    "quench": _build(QuenchSpec, {"k_ini": float, "k_fin": float}, "quench"),
    # The noise section stays a dict: from_dict splits off temperature_mk.
    "noise": lambda data: _section(data, _NOISE, "noise"),
    "initial_temperature_mk": _temperature_mk,
    "disorder": lambda data: _disorder(data) if data else None,
    "solver": _build(SolverConfig, {"kind": str, "bond_dim": int}, "solver"),
    "t_max": float,
    "dt": float,
    "sample_every": int,
    "observables": _build(ObservablesConfig, _OBSERVABLES, "observables"),
    "seed": int,
}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    chain: ChainSpec  # uncoupled template; the quench sets each member's couplings
    initial_state: str
    quench: QuenchSpec
    t_max: float
    dt: float  # the unit of the sample grid, and the Trotter step of the mps solver
    sample_every: int
    observables: ObservablesConfig
    seed: int
    noise: NoiseSpec = NoiseSpec()
    solver: SolverConfig = SolverConfig("exact")
    disorder: DisorderConfig | None = None
    initial_temperature_mk: float | None = None
    noise_temperature_mk: float | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.initial_state not in INITIAL_STATES:
            raise ConfigError(f"initial_state must be one of {INITIAL_STATES}")
        if not 0 < self.dt <= self.t_max < math.inf or self.sample_every < 1:
            raise ConfigError("t_max, dt must be finite with 0 < dt <= t_max, and sample_every >= 1")
        _check_grid("t_max", self.t_max, self.dt)
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        n = self.chain.n_qubits
        if self.solver.kind == "exact":
            _check_exact_memory(n, self.member_bytes)
        if self.solver.kind == "mps" and self.initial_state != "product_eigen":
            raise ConfigError("the mps solver supports product_eigen initial states only")
        if self.solver.kind == "mps" and n < 2:
            raise ConfigError("the mps solver needs at least two sites")
        if self.initial_state == "thermal_of_k_ini" and not self.initial_temperature_mk:
            raise ConfigError("thermal_of_k_ini requires initial_temperature_mk")
        if self.initial_state != "thermal_of_k_ini" and self.initial_temperature_mk is not None:
            raise ConfigError(f"initial_temperature_mk is read by thermal_of_k_ini only, not {self.initial_state}")
        if self.initial_state in ("product_eigen", "bell_head_eigen") and self.quench.k_ini:
            raise ConfigError(f"quench.k_ini is read by ground_of_k_ini and thermal_of_k_ini only, not {self.initial_state}")
        if self.noise_temperature_mk is not None and self.noise.n_thermal:
            raise ConfigError("noise takes n_thermal or temperature_mk, not both")
        for pair in self.observables.pairs:
            _check_pair(pair, n)
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
        sectors = _parity_sectors(self.chain, self.disorder.targets if self.disorder else ())
        return exact_member_bytes(self.chain.n_qubits, self.noise.gamma > 0, not mixed, sectors)

    @property
    def effective_noise(self) -> NoiseSpec:
        """The noise of the rates: n_T from `noise_temperature_mk` at the template's site-1 splitting."""
        if self.noise_temperature_mk is None:
            return self.noise
        omega1, kelvin = mixing_angles(self.chain).omega[0], self.chain.energy_unit_kelvin
        return NoiseSpec(self.noise.gamma, nbar_from_temperature(omega1, self.noise_temperature_mk * 1e-3, kelvin))

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["chain"]["coupling"]
        temperature = out.pop("noise_temperature_mk")
        if temperature is not None:
            out["noise"] = {"gamma": self.noise.gamma, "temperature_mk": temperature}
        return {key: value for key, value in out.items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        kwargs = _section(data, _SCENARIO, "config", cls)
        noise = kwargs.pop("noise", {})
        temperature = noise.pop("temperature_mk", None)
        if temperature is not None and "n_thermal" in noise:
            raise ConfigError("noise takes n_thermal or temperature_mk, not both")
        return cls(**kwargs, noise=NoiseSpec(**noise), noise_temperature_mk=temperature)


@dataclass(frozen=True)
class FirstMaximum:
    """Parabolically refined first strict local maximum of a sampled series."""

    value: float
    time: float


def first_maximum(times: np.ndarray, series: np.ndarray) -> FirstMaximum | None:
    """First local maximum above `FIRST_MAX_FLOOR`, refined across three samples.

    The drop after the maximum must exceed roundoff, so a series that is flat
    up to its last bits has none.  The parabola assumes equal spacings, so a
    maximum next to a shorter step (the last one of :func:`sample_grid`) is
    reported at its sample.
    """
    for k in range(1, len(series) - 1):
        if series[k] > FIRST_MAX_FLOOR and series[k] >= series[k - 1] and series[k] - series[k + 1] > 1e-12 * series[k]:
            y0, y1, y2 = series[k - 1], series[k], series[k + 1]
            step = times[k] - times[k - 1]
            equal = abs(times[k + 1] - times[k] - step) <= 1e-9 * step
            denom = y0 - 2.0 * y1 + y2
            shift = 0.5 * (y0 - y2) / denom if denom != 0 and equal else 0.0
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

    def member_series(self, pair, measure: str = "e_n") -> np.ndarray:
        return self.pair_series[tuple(pair)][measure]


def member_seed(master_seed: int, member: int) -> int:
    """Stable 64-bit per-member seed derived from the master seed."""
    words = np.random.SeedSequence([np.uint64(master_seed), np.uint64(member)]).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def _member_chain(config: ScenarioConfig, member: int, coupling: float) -> ChainSpec:
    """One member's chain, every bond at `coupling` before its draw, which its seed alone sets."""
    chain = config.chain.with_coupling(coupling)
    if config.disorder is None:
        return chain
    dis = DisorderSpec(config.disorder.fraction, config.disorder.targets, member_seed(config.seed, member))
    return sample_disorder(chain, dis)


def _prepare_initial(config: ScenarioConfig, member: int) -> np.ndarray:
    """Initial state of one member: a state vector, or a density matrix if mixed."""
    n = config.chain.n_qubits
    kind = config.initial_state
    if kind == "product_eigen":
        return eigenbasis_product(n)
    if kind == "bell_head_eigen":
        return eigenbasis_bell_head(n)
    # Per parity block: the state has exactly no weight in the other sector.
    h_ini = build_hamiltonian_eigen(_member_chain(config, member, config.quench.k_ini))
    if kind == "ground_of_k_ini":
        ground = ground_state(h_ini)
        if ground.degenerate:
            raise ValueError(f"member {member}: the ground state at k_ini is degenerate (gap {ground.gap:.3e})")
        return ground.vector
    return thermal_state(h_ini, config.initial_temperature_mk * 1e-3, config.chain.energy_unit_kelvin)


Accessor = Callable[[tuple[int, ...]], ReducedState]


def propagate(
    state0: np.ndarray | MpsMixedState,
    h: HamiltonianBlocks | None,
    rates: RateSet,
    t_max: float,
    dt: float,
    sample_every: int = 1,
    engine: MixedTebdEngine | None = None,
) -> Iterator[tuple[np.ndarray, Accessor]]:
    """Propagate one state and yield (times, accessor) blocks that cover :func:`sample_grid` in order.

    The accessor maps ascending 1-based sites to the reduced density
    matrices at `times`, stacked as (len(times), 2^m, 2^m), and stays valid
    after later blocks are drawn.  With `engine`, whose step must be `dt`,
    `state0` is an MpsMixedState advanced by its TEBD steps, one engine call
    per sample interval, and `h` is unused.
    Otherwise `state0` is a state vector or density matrix under the
    Hamiltonian `h`, given as its real diagonal blocks
    (:func:`qubitchain.chain.build_hamiltonian_eigen`; a dense d x d matrix
    is one block, ``[(np.arange(d), h)]``).  TEBD and the noisy dense path
    yield one sample per block.

    With noise, :func:`qubitchain.lindblad.stream` propagates the
    diagonal blocks rho[b, b] of the density matrix in real form, and the
    accessor reads the reduced states straight from them.  A state with a
    nonzero entry between two blocks runs as one block of every index
    instead.

    Without noise, a block whose component of `state0` is exactly zero is
    skipped.  A state vector is propagated by a Chebyshev expansion of
    exp(-iHt) on each diagonal block of `h`, accurate to roundoff, which
    takes products of the block with vectors and no eigendecomposition; it
    is served up to 2^N samples per block.  A density matrix is propagated
    exactly in the eigenbasis of each diagonal block and served one sample
    per block, as its stacked diagonal blocks like the noisy path's, with
    the same fallback to one block.
    """
    if engine is not None and engine.dt != dt:
        raise ValueError(f"the engine steps at dt = {engine.dt}, the sample grid at dt = {dt}")
    times = sample_grid(t_max, dt, sample_every)
    if engine is not None:
        state = state0
        for k, t in enumerate(times):
            if k:
                state = engine.step(state, int(round((t - times[k - 1]) / dt)))
            yield times[k : k + 1], partial(_mps_sample, state)
    elif rates.is_zero():
        yield from _propagate_unitary(state0, h, times)
    else:
        rho0, h = _sector_start(state0, h)
        samples = stream(rho0, h, rates, times)
        del state0, rho0  # the stream keeps its own copy of the blocks
        for t, r, _ in samples:
            yield np.array([t]), partial(_dense_sample, r, [b for b, _ in h])


def _sector_start(state0: np.ndarray, h: HamiltonianBlocks) -> tuple[np.ndarray, HamiltonianBlocks]:
    """Stacked diagonal blocks of the initial density matrix, and `h`: its
    blocks merged into one if the state has a nonzero entry between two."""
    rho0 = density_from_pure(state0) if state0.ndim == 1 else state0
    blocks, parts = zip(*h)
    if couples_blocks(rho0, blocks):
        h = [(np.arange(len(rho0)), block_matrix(parts, blocks))]
    return block_stack(rho0, [b for b, _ in h]), h


def _dense_sample(r: np.ndarray, blocks: list[np.ndarray], sites) -> ReducedState:
    """Reduced state of one noisy dense sample, whose blocks are in real form, stacked as a block of one."""
    rs = reduce_blocks(r[None], blocks, sites)
    return ReducedState(rs.sites, density(rs.matrix))


def _mps_sample(state: MpsMixedState, sites) -> ReducedState:
    """Reduced state of one MPS sample, stacked as a block of one."""
    rs = reduced_sites_dm(state, sites)
    return ReducedState(rs.sites, rs.matrix[None])


def _propagate_unitary(
    state0: np.ndarray, h: HamiltonianBlocks, times: np.ndarray
) -> Iterator[tuple[np.ndarray, Accessor]]:
    """The noiseless branch of :func:`propagate`.

    A state vector runs by the Chebyshev series of exp(-iHt) on each block
    (:func:`_chebyshev_propagate`); a density matrix by exact phases in
    each block's real eigenbasis.
    """
    d = len(state0)
    mixed = state0.ndim == 2
    if mixed:
        state0, h = _sector_start(state0, h)
    blocks = [b for b, _ in h]
    h_parts = [require_real_symmetric(part) for _, part in h]
    parts = state0 if mixed else [state0[b] for b in blocks]
    # A block that state0 does not reach (no nonzero entry) is never propagated.
    reached = [k for k in range(len(h)) if parts[k].any()]
    if not mixed:
        scaled = {k: _chebyshev_block(h_parts[k]) for k in reached}
        t0 = times[0]
        # At most d samples at once: the amplitudes never outgrow one d x d array.
        for start in range(0, len(times), d):
            ts = times[start : start + d]
            psi = np.zeros((len(ts), d), dtype=complex)
            for k in reached:
                psi[:, blocks[k]] = _chebyshev_propagate(scaled[k], parts[k], t0, ts)
                parts[k] = psi[-1, blocks[k]]
            t0 = ts[-1]
            yield ts, partial(reduce_statevector, psi)
    else:
        eig = [(k, *np.linalg.eigh(h_parts[k])) for k in reached]
        coeffs = [(k, e, v, v.T @ parts[k] @ v) for k, e, v in eig]
        for i, t in enumerate(times):
            rho = np.zeros(parts.shape, dtype=complex)
            for k, e, v, r in coeffs:
                phase = np.exp(-1j * e * t)
                rho[k] = v @ (phase[:, None] * r * phase.conj()) @ v.T
            yield times[i : i + 1], partial(reduce_blocks, rho[None], blocks)


# Each Chebyshev window spans a * tau <= _CHEBYSHEV_SPAN, a being the
# half-width of the block's spectral interval.  Longer windows take fewer
# terms per unit time (55 for 20, 84 for 40) but a larger coefficient
# matrix: 20 and 40 ran alike at N = 8, and 40 a quarter faster at N = 11.
_CHEBYSHEV_SPAN = 40.0
# Terms past the 2^-53 bound on the first dropped coefficient.  The
# interpolant's error is about twice the dropped tail, and each further term
# shrinks the bound by x / 2k <= 1/2.
_CHEBYSHEV_MARGIN = 2


def _chebyshev_block(part: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(H2, c, a) of a real symmetric block H: its Gershgorin interval
    [c - a, c + a] and H2 = 2 (H - c) / a, which the recurrence multiplies by."""
    diag = np.diag(part)
    radius = np.abs(part).sum(axis=1) - np.abs(diag)
    lo, hi = float((diag - radius).min()), float((diag + radius).max())
    centre, half = (hi + lo) / 2, (hi - lo) / 2
    if half == 0:  # H = c I: a phase alone
        return part, centre, 0.0
    return (part - centre * np.eye(len(part))) * (2 / half), centre, half


def _chebyshev_terms(x: float) -> int:
    """Least k >= x with (x/2)^k / k! < 2^-53, which bounds the k-th Chebyshev
    coefficient |J_k(x)| of exp(-ix y) on [-1, 1], plus the margin."""
    k, tail = 0, 1.0
    while k < x or tail >= 2.0**-53:
        k += 1
        tail *= x / (2 * k)
    return k + _CHEBYSHEV_MARGIN


@lru_cache(maxsize=None)
def _chebyshev_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k Chebyshev nodes y_j = cos(theta_j), theta_j = pi (j + 1/2) / k,
    and the k x k matrix that maps values at them to the coefficients of
    their interpolant in T_0 .. T_{k-1}."""
    theta = np.pi * (np.arange(k) + 0.5) / k
    to_coef = np.cos(np.outer(theta, np.arange(k))) * (2.0 / k)
    to_coef[:, 0] /= 2
    return np.cos(theta), to_coef


def _chebyshev_propagate(block, psi0: np.ndarray, t0: float, times: np.ndarray) -> np.ndarray:
    """exp(-iH (t - t0)) psi0, one row for each of the ascending `times` >= t0.

    `block` is :func:`_chebyshev_block` of H.  The span is cut into windows
    of a * tau <= _CHEBYSHEV_SPAN; each window expands exp(-iH s) in
    Chebyshev polynomials of H (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984)) from the amplitude at its start, the last time of the window
    before, so only products of H with vectors are taken.
    """
    h2, centre, half = block
    if half == 0:
        return np.exp(-1j * centre * (times - t0))[:, None] * psi0
    out = np.empty((len(times), len(psi0)), dtype=complex)
    done = 0
    while done < len(times):
        end = t0 + _CHEBYSHEV_SPAN / half
        stop = int(np.searchsorted(times, end, side="right"))
        if stop == done:  # a window that reaches no sample: carry the amplitude across it
            psi0, t0 = _chebyshev_window(block, psi0, np.array([end - t0]))[0], end
        else:
            _chebyshev_window(block, psi0, times[done:stop] - t0, out[done:stop])
            done, t0, psi0 = stop, times[stop - 1], out[stop - 1]
    return out


def _chebyshev_window(block, psi0: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-iH s) psi0 at the offsets `s`, one row each, from one Chebyshev series, into `out` if given.

    The vectors phi_k = T_k((H - c) / a) psi0 come from the three-term
    recurrence phi_{k+1} = H2 phi_k - phi_{k-1}, a real GEMM with the real
    and imaginary parts of phi_k as its columns (a real start has no
    imaginary column).  The series is that of the interpolant of
    exp(-i lambda s) at the Chebyshev nodes lambda_j = c + a y_j, so it sums
    the phases at the nodes times g_j = p_j(H) psi0, p_j being the cardinal
    polynomial of node j: real GEMMs only.
    """
    h2, centre, half = block
    nodes, to_coef = _chebyshev_nodes(_chebyshev_terms(half * s[-1]))
    complex_start = np.iscomplexobj(psi0) and psi0.imag.any()
    phi = np.empty((len(nodes), len(psi0), 2 if complex_start else 1))
    phi[0] = np.stack([psi0.real, psi0.imag], axis=1) if complex_start else psi0.real[:, None]
    np.matmul(h2, phi[0], out=phi[1])
    phi[1] *= 0.5
    for k in range(2, len(nodes)):
        np.matmul(h2, phi[k - 1], out=phi[k])
        phi[k] -= phi[k - 2]
    g = to_coef @ phi.reshape(len(nodes), -1)
    angle = np.outer(s, half * nodes + centre)
    # exp(-i angle) g, with g = g_re + i g_im split over the last axis
    shape = (len(s), *phi.shape[1:])
    re, im = (np.cos(angle) @ g).reshape(shape), (np.sin(angle) @ g).reshape(shape)
    if out is None:
        out = np.empty((len(s), len(psi0)), dtype=complex)
    out.real = re[..., 0] + im[..., 1] if complex_start else re[..., 0]
    out.imag = re[..., 1] - im[..., 0] if complex_start else -im[..., 0]
    return out


def _run_member(config: ScenarioConfig, member: int):
    """Measure one ensemble member over the sample grid.

    Returns (pair series, block series, asymmetries, correlations, flags):
    one series per pair and measure, one per block, each pair's correlation
    asymmetry when C2' is measured, and, for member 0 in frozen-axes mode,
    each pair's correlation matrices stacked as (times, 3, 3).
    """
    chain_fin = _member_chain(config, member, config.quench.k_fin)
    rates = rates_from_angles(mixing_angles(chain_fin), config.effective_noise)
    engine = h = None
    if config.solver.kind == "mps":
        engine = MixedTebdEngine(chain_fin, rates, config.dt, config.solver.bond_dim)
        ground = np.diag([1.0, 0.0]).astype(complex)
        state0 = mps_from_product([ground] * config.chain.n_qubits)
    else:
        h = build_hamiltonian_eigen(chain_fin)
        state0 = _prepare_initial(config, member)
    samples = propagate(state0, h, rates, config.t_max, config.dt, config.sample_every, engine)
    del state0  # with noise, propagate lets go of a full initial density matrix

    n_times = len(sample_grid(config.t_max, config.dt, config.sample_every))
    pairs, measures = config.observables.pairs, config.observables.measures
    pair_series = {p: {m: np.empty(n_times) for m in measures} for p in pairs}
    block_series = {b: np.empty(n_times) for b in config.observables.blocks}
    asymmetries = {p: np.empty(n_times) for p in pairs} if "c2_opt" in measures else {}
    # Axes freezing is a single-run protocol: it reads the first member only.
    frozen = config.observables.frozen_axes and member == 0
    correlations = {p: np.empty((n_times, 3, 3)) for p in pairs} if frozen else {}
    bounds = {m: f for m, f in (("c1", bound_c1), ("c2", bound_c2), ("c2_opt", c2_opt_value)) if m in measures}
    done = 0
    for ts, acc in samples:
        rows = slice(done, done + len(ts))
        done += len(ts)
        for p in pairs:
            rs = acc(p)
            if "e_n" in measures:
                pair_series[p]["e_n"][rows] = log_negativity(rs, p[:1])
            if bounds or frozen:
                x = correlation_matrix_from_pair(rs)
                for m, bound in bounds.items():
                    pair_series[p][m][rows] = bound(x)
                if asymmetries:
                    asymmetries[p][rows] = asymmetry(x)
                if frozen:
                    correlations[p][rows] = x
        for a, b in config.observables.blocks:
            block_series[(a, b)][rows] = log_negativity(acc(tuple(sorted(a + b))), a)
    flags: list[str] = []
    if engine is not None:
        if engine.flagged_steps:
            flags.append(
                f"mps truncation ceiling exceeded on {engine.flagged_steps} steps "
                f"(total discarded weight {engine.truncation_weight:.3e})"
            )
        flags.append(f"mps total truncation weight {engine.truncation_weight:.3e}")
    return pair_series, block_series, asymmetries, correlations, flags


def run_scenario(config: ScenarioConfig, threads: int = 1) -> ResultSet:
    """Execute every ensemble member and aggregate the observables.

    Aggregation is indexed by member, so results do not depend on `threads`.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    times = sample_grid(config.t_max, config.dt, config.sample_every)
    members = config.ensemble_size
    if config.solver.kind == "exact":
        _check_exact_memory(config.chain.n_qubits, config.member_bytes, min(threads, members))
    pairs, measures = config.observables.pairs, config.observables.measures
    one = partial(_run_member, config)
    if threads > 1 and members > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(members)))
    else:
        results = list(map(one, range(members)))
    series, blocks, asymmetries, correlations, member_flags = zip(*results)
    pair_series = {p: {m: np.array([s[p][m] for s in series]) for m in measures} for p in pairs}
    block_series = {b: np.array([s[b] for s in blocks]) for b in config.observables.blocks}
    flags = [f for mf in member_flags for f in mf]
    for p in asymmetries[0]:
        flags.extend(asymmetry_flags(p, np.array([a[p] for a in asymmetries])))

    # nanmean over a column with no evaluable member is NaN by design
    # (c2_opt under the symmetrization policy); silence the numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = {p: {m: np.nanmean(pair_series[p][m], axis=0) for m in measures} for p in pairs}
        std = {p: {m: np.nanstd(pair_series[p][m], axis=0) for m in measures} for p in pairs}

    fm_values, fm_times = {}, {}
    for p in pairs:
        found = [first_maximum(times, s) for s in pair_series[p]["e_n"]] if "e_n" in measures else [None] * members
        fm_values[p] = np.array([fm.value if fm else math.nan for fm in found])
        fm_times[p] = np.array([fm.time if fm else math.nan for fm in found])

    stats = EnsembleStats(mean, std, fm_values, fm_times)
    frozen = config.observables.frozen_axes
    frozen_series, frozen_info = _frozen_axes(times, pair_series, correlations[0], flags) if frozen else (None, None)
    return ResultSet(config, times, pair_series, block_series, stats, flags, frozen_series, frozen_info)


def _frozen_axes(times, pair_series, correlations, flags: list[str]):
    """Plain bound along axes frozen at each pair's E_N peak: (series, info).

    Reads the first ensemble member's correlation matrices, stacked as
    (times, 3, 3).
    """
    series: dict[tuple[int, int], np.ndarray] = {}
    info: dict = {}
    for p, xs in correlations.items():
        ref_idx = int(np.nanargmax(pair_series[p]["e_n"][0]))
        ref_asymmetry = asymmetry(xs[ref_idx])
        if not c2_opt_defined(ref_asymmetry):
            flags.append(f"frozen axes unavailable for pair {p}: reference asymmetry {ref_asymmetry:.2e}")
            series[p] = np.full(len(xs), math.nan)
            continue
        axes = bound_c2_optimized(xs[ref_idx]).axes
        series[p] = frozen_axes_bound(xs, axes)
        info[str(list(p))] = {
            "reference_time": float(times[ref_idx]),
            "axes": [[float(v) for v in axis] for axis in axes],
        }
    return series, info


# The sample spacing of each scan point's transient.
_TRANSIENT_DT = 0.5

_SCAN = {
    "schema_version": _schema_version,
    "name": str,
    # Uncoupled: each ratio sets every bond to ratio x delta_1.
    "chain": _chain,
    "gammas": lambda gammas: tuple(map(float, gammas)),
    "coupling_ratios": lambda ratios: tuple(map(float, ratios)),
    "n_thermal": float,
    "pair": _pair,
    "tol": float,
    "transient_t_max": float,
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
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not self.gammas or not self.coupling_ratios:
            raise ConfigError("scan grids must be non-empty")
        n = self.chain.n_qubits
        _check_pair(self.pair, n)
        for key in ("tol", "transient_t_max"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and > 0")
        _check_grid("transient_t_max", self.transient_t_max, _TRANSIENT_DT)
        if not all(g >= 0 for g in self.gammas) or not self.n_thermal >= 0:
            raise ConfigError("every gamma and n_thermal must be >= 0")
        if any(a >= b for a, b in zip(self.gammas, self.gammas[1:])):
            raise ConfigError(f"gammas must ascend strictly (rows are classified in order), got {list(self.gammas)}")
        if len(set(self.coupling_ratios)) != len(self.coupling_ratios):
            raise ConfigError(f"coupling_ratios must be distinct (each is one row), got {list(self.coupling_ratios)}")
        solve = _STEADY_ARRAYS * 8 * 4**n // _parity_sectors(self.chain)  # outweighs its transient
        _check_exact_memory(n, solve if any(self.gammas) else exact_member_bytes(n, False))

    @classmethod
    def from_dict(cls, data: dict) -> "ScanConfig":
        return cls(**_section(data, _SCAN, "scan config", cls))

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["chain"]["coupling"]
        return out


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


def classify_row(values: list[float]) -> str:
    """Classify steady E_N vs noise strength: zero, monotone, or non-monotone.

    Non-monotone means entanglement absent below some threshold but present
    above it, or any strict increase along the grid.
    """
    if all(v < ZERO_CLASS_FLOOR for v in values):
        return "zero"
    rises = any(b > max(a, ZERO_CLASS_FLOOR) + ZERO_CLASS_FLOOR for a, b in zip(values, values[1:]))
    if rises:
        return "non_monotone"
    return "monotone_decreasing"


@dataclass
class ScanResult:
    config: ScanConfig
    points: list[ScanPoint]

    def row(self, ratio: float) -> list[ScanPoint]:
        return [p for p in self.points if p.coupling_ratio == ratio]

    @property
    def classifications(self) -> dict[float, str]:
        """Class of each coupling ratio's row (:func:`classify_row`), in scan order."""
        rows = {r: [p.steady_e_n for p in self.row(r) if p.applicable] for r in self.config.coupling_ratios}
        return {ratio: classify_row(values) if values else "not_applicable" for ratio, values in rows.items()}


def _first_max_value(blocks: Iterator[tuple[np.ndarray, np.ndarray]]) -> float:
    """:func:`first_maximum` of the series that the (times, values) blocks make up, or 0.0 if none.

    The blocks are read only until the maximum is found.  first_maximum
    tests sample k on samples k-1, k and k+1 alone, so each block is tested
    behind the last two samples of the one before: the value found is the
    one of the whole series.
    """
    times, series = np.empty(0), np.empty(0)
    for ts, values in blocks:
        times, series = np.concatenate([times[-2:], ts]), np.concatenate([series[-2:], values])
        found = first_maximum(times, series)
        if found:
            return found.value
    return 0.0


def steady_state_scan(config: ScanConfig) -> ScanResult:
    """Certified steady-state E_N over the (coupling ratio x Gamma) grid.

    Gamma = 0 points are reported as not applicable (no steady state without
    dissipation).  Each point also records the first transient maximum so
    the short-time monotonicity can be checked alongside.  The transient
    stops at that maximum: `transient_t_max` is a cap, reached only by a
    point that has none.
    """
    points: list[ScanPoint] = []
    rho0_vec = eigenbasis_product(config.chain.n_qubits)
    part = (config.pair[0],)
    for ratio in config.coupling_ratios:
        chain = config.chain.with_coupling(ratio * config.chain.delta[0])
        h = build_hamiltonian_eigen(chain)
        angles = mixing_angles(chain)
        for gamma in config.gammas:
            noise = NoiseSpec(gamma, config.n_thermal)
            rates = rates_from_angles(angles, noise)
            samples = propagate(rho0_vec, h, rates, config.transient_t_max, _TRANSIENT_DT, 1)
            fm = _first_max_value((ts, log_negativity(acc(config.pair), part)) for ts, acc in samples)
            if gamma == 0.0 or rates.is_zero():
                points.append(ScanPoint(ratio, gamma, math.nan, False, math.nan, fm, False))
                continue
            res = steady_state(h, rates, config.tol)
            en = log_negativity(reduce(res.state, config.pair), part)
            points.append(ScanPoint(ratio, gamma, en, res.converged, res.residual, fm, True))
    return ScanResult(config, points)
