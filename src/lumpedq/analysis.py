"""End-to-end device analysis pipeline.

Stitches the modules together in two halves: ``build_circuit`` runs Maxwell
ingestion -> cell composition -> constraint elimination -> dressed blocks,
reading no junction's L_j or E_J, and ``build_model`` runs subsystem
quantization -> composite Hamiltonian -> dressed observables on a circuit.
Also provides the naive comparison mode, parameter sweeps, the sensitivity
budget, and junction inductance calibration, which quantize one circuit
many times where their variations leave it unchanged. A circuit keeps each
line it solved, so a line whose config is unchanged is solved once per
circuit. Every run is a pure function of the configuration, so sweep points
may execute in parallel; two threads that share a circuit may both solve
and store a line, and they store equal values.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import constants

from .composite import (
    CouplingEdge,
    CouplingGraph,
    DispersiveObservables,
    DressedSpectrum,
    build_full_hamiltonian,
    coupling_rates,
    cross_kerr_matrix,
    diagonalize,
    extract_dispersive,
    mode_frequencies,
    observable_labels,
)
from .config import DeviceConfig, LineConfig, TransmonConfig
from .errors import ConfigError
from .loadedline import LineMode, LoadedLineSpec, calibrate_length, solve_modes
from .maxwell_io import parse_maxwell_file
from .netlist import (
    CellMatrices,
    CircuitBlocks,
    JunctionElement,
    MaxwellMatrix,
    NodeRegistry,
    PHI_0,
    ReducedCircuit,
    _two_terminal_stamp,
    compose_cells,
    extract_blocks,
    merge_maxwell_nodes,
    reduce_maxwell,
    reduce_network,
    weak_coupling_blocks,
)
from .roots import calibrate_scalar
from .subsystems import QuantizedSubsystem, TransmonSpec, diagonalize_transmon, quantize_line

CellHook = Callable[[str, MaxwellMatrix], MaxwellMatrix]
GraphHook = Callable[[CouplingGraph], CouplingGraph]


@dataclass(frozen=True)
class LineResult:
    config: LineConfig
    spec: LoadedLineSpec
    dressed_loading: float  # F, loading used for the mode solve
    port_loadings: Mapping[str, float]  # dressed loading seen per port node
    modes: tuple[LineMode, ...]


@dataclass(frozen=True)
class DeviceCircuit:
    """Stages 1-5 of one configuration: the linear network, reduced and cut
    into blocks. It holds no junction's L_j or E_J.

    ``lines`` keeps each line solved on this circuit, keyed by its config and
    the naive flag: its port loadings depend only on the circuit and the
    line's nodes. Two threads that share a circuit may both fill an entry;
    they store equal values."""

    config: DeviceConfig
    reduced: ReducedCircuit
    blocks: CircuitBlocks
    # sha256 of each Maxwell file's bytes as parsed, keyed by its config entry
    input_sha256: Mapping[str, str]
    lines: dict[tuple[LineConfig, bool], tuple[LineResult, QuantizedSubsystem]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def fits(self, config: DeviceConfig) -> bool:
        """Whether ``config`` equals this circuit's in every field stages 1-5 read."""
        return _circuit_fields(config) == _circuit_fields(self.config)


@dataclass(frozen=True)
class DeviceModel:
    """Everything produced by one pipeline run: a circuit quantized at ``config``."""

    config: DeviceConfig
    circuit: DeviceCircuit
    subsystems: tuple[QuantizedSubsystem, ...]
    transmon_specs: Mapping[str, TransmonSpec]
    lines: Mapping[str, LineResult]
    graph: CouplingGraph
    spectrum: DressedSpectrum
    dispersive: DispersiveObservables | None
    port_coord: Mapping[str, tuple[str, str]]  # reduced label -> (subsystem, port)
    # one name per flattened mode: the subsystem's, indexed when it has several
    flat_mode_names: tuple[str, ...]

    def dressed_mode_frequencies(self) -> list[float]:
        return mode_frequencies(self.spectrum)

    def cross_kerr(self) -> np.ndarray:
        return cross_kerr_matrix(self.spectrum)

    def coupling_rates(self) -> dict:
        return coupling_rates(self.subsystems, self.graph)


def _load_cells(config: DeviceConfig, cell_hook: CellHook | None) -> tuple[
        list[CellMatrices], dict[str, str]]:
    """The reduced cells, and the sha256 of each Maxwell file as parsed."""
    cells, digests = [], {}
    for cc in config.cells:
        maxwell = parse_maxwell_file(cc.maxwell_file)
        digests[cc.maxwell_entry] = maxwell.source_sha256
        if cc.ground_nets:
            maxwell = merge_maxwell_nodes(maxwell, cc.ground_nets, config.datum)
        if cell_hook is not None:
            maxwell = cell_hook(cc.ident, maxwell)
        cells.append(reduce_maxwell(maxwell, config.datum, cc.ident))
    return cells, digests


def _build_registry(config: DeviceConfig, extra_couplers: Sequence[str]) -> NodeRegistry:
    """The config's partition of the device nodes into subsystems and couplers."""
    return NodeRegistry(
        datum=config.datum,
        subsystems={s.name: frozenset(s.nodes) for s in (*config.transmons, *config.lines)},
        couplers=frozenset((*config.couplers, *extra_couplers)),
    )


def _lumped_cell(config: DeviceConfig) -> CellMatrices:
    """One synthetic cell of the explicit linear inductors, carrying every
    junction: composition stamps their C_J by node name."""
    nodes = sorted({n for ind in config.inductors for n in (ind.node_a, ind.node_b)
                    if n != config.datum})
    index = {n: i for i, n in enumerate(nodes)}
    l_inv = np.zeros((len(nodes), len(nodes)))
    for ind in config.inductors:
        for i, k, sign in _two_terminal_stamp(index, config.datum, ind.node_a, ind.node_b):
            l_inv[i, k] += sign * (1.0 / ind.l_h)
    junctions = tuple(JunctionElement(jc.ident, jc.node_neg, jc.node_pos, jc.subsystem, cj=jc.cj_f)
                      for jc in config.junctions)
    return CellMatrices("__lumped__", tuple(nodes), np.zeros_like(l_inv), l_inv, junctions)


def _transmon_subsystem(
    tc: TransmonConfig, config: DeviceConfig, blocks: CircuitBlocks,
    lj_overrides: Mapping[str, float],
) -> tuple[TransmonSpec, QuantizedSubsystem, str]:
    """The transmon's spec, with E_J from its junction's config entry or
    ``lj_overrides``, and its factor."""
    owned = [j for j in config.junctions if j.subsystem == tc.name]
    if len(owned) != 1:
        raise ConfigError(f"transmon {tc.name!r} must own exactly one junction, found {len(owned)}")
    junction = owned[0]
    coords = blocks.block_index[tc.name]
    if list(coords) != [blocks.index_of(junction.ident)]:
        extra = [blocks.labels[i] for i in coords if blocks.labels[i] != junction.ident]
        raise ConfigError(
            f"transmon {tc.name!r} retains non-junction coordinates {extra}; "
            "declare pad nodes consumed by the rotation or mark them as couplers"
        )
    lj = lj_overrides.get(junction.ident, junction.lj_h)
    spec = TransmonSpec(
        c_eff=blocks.c_eff(junction.ident),
        ej=junction.ej_j if lj is None else PHI_0**2 / lj,
        q_offset=tc.q_offset_2e * 2.0 * constants.e,
        n_max=tc.n_max,
        levels=tc.levels,
    )
    return spec, dataclasses.replace(diagonalize_transmon(spec), name=tc.name), junction.ident


def _naive_port_zpfs(modes: Sequence[LineMode]) -> tuple[list[float], list[float]]:
    """Lumped-equivalent port ZPFs for the undressed (C_L = 0) line: the mode
    maps to an LC with port capacitance C_port = c * int u^2 dz / u(0)^2."""
    charge, flux = [], []
    for m in modes:
        u0 = math.cos(m.phase)
        c_port = m.spec.c_per_len * m.line_integral / u0**2
        charge.append(math.sqrt(0.5 * constants.hbar * m.omega * c_port))
        flux.append(math.sqrt(0.5 * constants.hbar / (m.omega * c_port)))
    return charge, flux


def _line_subsystem(lc: LineConfig, circuit: DeviceCircuit, blocks: CircuitBlocks,
                    naive: bool) -> tuple[LineResult, QuantizedSubsystem]:
    """Solve and quantize one line, loaded by the larger of its port loadings
    in ``blocks`` (the circuit's blocks, or their weak-coupling form when
    ``naive``); ``naive`` solves it unloaded with lumped-equivalent port ZPFs.
    A line solved on ``circuit`` before is taken from ``circuit.lines``."""
    solved = circuit.lines.get((lc, naive))
    if solved is not None:
        return solved
    port_loadings = {node: blocks.c_eff(node) for node in lc.nodes}
    loading = 0.0
    if port_loadings and not naive:
        loading = max(port_loadings.values())
        spread = loading - min(port_loadings.values())
        if len(port_loadings) > 1 and spread > 1e-3 * loading:
            warnings.warn(
                f"line {lc.name!r}: port loadings differ by {spread:.3e} F; "
                "modeled as singly loaded with the larger value"
            )

    if lc.length_m is not None:
        length = lc.length_m
    else:
        cal_load = 0.0 if lc.target_loading == "unloaded" else loading
        length = calibrate_length(
            2.0 * math.pi * lc.target_hz, lc.target_mode,
            z0=lc.z0_ohm, v_p=lc.vp_m_per_s, c_load=cal_load, shorted_end=lc.shorted_end,
        )
    spec = LoadedLineSpec.from_wave_params(
        length=length, z0=lc.z0_ohm, v_p=lc.vp_m_per_s,
        c_load=loading, shorted_end=lc.shorted_end,
    )
    modes = solve_modes(spec, lc.modes)
    charge_zpf, flux_zpf = _naive_port_zpfs(modes) if naive else (None, None)
    sub = quantize_line(spec, modes, levels=lc.levels, name=lc.name, ports=lc.nodes,
                        charge_zpf=charge_zpf, flux_zpf=flux_zpf)
    solved = circuit.lines[lc, naive] = (
        LineResult(config=lc, spec=spec, dressed_loading=loading,
                   port_loadings=port_loadings, modes=tuple(modes)), sub)
    return solved


def _circuit_fields(config: DeviceConfig) -> tuple:
    """What stages 1-5 read of a configuration."""
    return (config.datum, config.cells, config.couplers, config.inductors,
            [(s.name, s.nodes) for s in (*config.transmons, *config.lines)],
            [(j.ident, j.node_neg, j.node_pos, j.subsystem, j.cj_f) for j in config.junctions])


def build_circuit(config: DeviceConfig, cell_hook: CellHook | None = None,
                  extra_couplers: Sequence[str] = ()) -> DeviceCircuit:
    """Stages 1-5, with each cell passed through ``cell_hook`` and the nodes
    it adds declared in ``extra_couplers``."""
    cells, input_sha256 = _load_cells(config, cell_hook)
    netlist = compose_cells([*cells, _lumped_cell(config)], _build_registry(config, extra_couplers))
    reduced = reduce_network(netlist)
    return DeviceCircuit(config, reduced, extract_blocks(reduced), input_sha256)


def build_model(
    config: DeviceConfig,
    *,
    circuit: DeviceCircuit | None = None,
    naive: bool = False,
    graph_hook: GraphHook | None = None,
    lj_overrides: Mapping[str, float] | None = None,
) -> DeviceModel:
    """Run the pipeline once: stages 6-7 of ``config`` on ``circuit``
    (``build_circuit(config)`` when not given), which must come from a
    config equal to ``config`` in every field stages 1-5 read. Each E_J is
    set here, from the junction's config entry or ``lj_overrides`` (henries
    by junction id; an id that is no junction of ``config``, or a value that
    is not positive and finite, is a ConfigError).
    Lines come from ``circuit.lines`` where solved there before.

    ``naive`` recomputes under conventional approximations: line modes are
    solved without loading (undressed eigenfields, lumped-equivalent port
    ZPFs), and the transmons and couplings read ``weak_coupling_blocks``
    in place of the eliminated inverse.
    """
    unknown = sorted(set(lj_overrides or {}) - {j.ident for j in config.junctions})
    if unknown:
        raise ConfigError(f"lj_overrides name no junction of the configuration: {unknown}")
    for ident, lj in (lj_overrides or {}).items():
        if not (lj > 0.0 and math.isfinite(lj)):
            raise ConfigError(f"lj_overrides: {ident!r} must be a positive, finite "
                              f"inductance, got {lj!r}")
    if circuit is None:
        circuit = build_circuit(config)
    elif not circuit.fits(config):
        raise ConfigError("configuration differs from its circuit's in a field stages 1-5 read")
    # no subsystem models a linear inductance on its own coordinate: refuse it, not drop it
    inductive = [label for label, y in zip(circuit.blocks.labels, np.diag(circuit.blocks.l_inv))
                 if y != 0.0]
    if inductive:
        raise ConfigError(f"retained coordinates {inductive} carry a linear inductance "
                          "(nonzero L^-1 diagonal), which the quantization would drop")
    blocks = weak_coupling_blocks(circuit.reduced) if naive else circuit.blocks

    subsystems: list[QuantizedSubsystem] = []
    transmon_specs = {}
    port_coord: dict[str, tuple[str, str]] = {}
    for tc in config.transmons:
        spec, sub, junction_label = _transmon_subsystem(tc, config, blocks, lj_overrides or {})
        transmon_specs[tc.name] = spec
        subsystems.append(sub)
        port_coord[junction_label] = (tc.name, "junction")

    lines = {}
    for lc in config.lines:
        lines[lc.name], sub = _line_subsystem(lc, circuit, blocks, naive)
        subsystems.append(sub)
        for node in lc.nodes:
            port_coord[node] = (lc.name, node)

    # every retained coordinate must carry a port operator
    for name, coords in blocks.block_index.items():
        for i in coords:
            label = blocks.labels[i]
            if label not in port_coord:
                raise ConfigError(
                    f"retained coordinate {label!r} of subsystem {name!r} has no port operator"
                )

    graph = _coupling_graph(port_coord, blocks)
    if graph_hook is not None:
        graph = graph_hook(graph)

    flat_mode_names = tuple(f"{sub.name}[{m}]" if len(sub.factors) > 1 else sub.name
                            for sub in subsystems for m in range(len(sub.factors)))

    def first_mode(name: str) -> int:
        return flat_mode_names.index(name if name in flat_mode_names else f"{name}[0]")

    qubit_mode = readout_mode = None
    if config.analysis.qubit and config.analysis.readout:
        qubit_mode = first_mode(config.analysis.qubit)
        readout_mode = first_mode(config.analysis.readout)

    h = build_full_hamiltonian(subsystems, graph, dimension_cap=config.analysis.dimension_cap)
    spectrum = diagonalize(subsystems, h, observable_labels(subsystems, qubit_mode),
                           min_overlap=config.analysis.min_overlap)
    dispersive = None
    if qubit_mode is not None:
        dispersive = extract_dispersive(spectrum, qubit_mode, readout_mode)

    return DeviceModel(
        config=config, circuit=circuit, subsystems=tuple(subsystems),
        transmon_specs=transmon_specs, lines=lines, graph=graph,
        spectrum=spectrum, dispersive=dispersive, port_coord=port_coord,
        flat_mode_names=flat_mode_names,
    )


def _coupling_graph(port_coord: Mapping[str, tuple[str, str]],
                    blocks: CircuitBlocks) -> CouplingGraph:
    """One edge per pair of ports in different subsystems with a nonzero
    capacitive or inductive coupling reciprocal."""
    labels = list(port_coord)
    edges = []
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            la, lb = labels[a], labels[b]
            sub_a, p_a = port_coord[la]
            sub_b, p_b = port_coord[lb]
            if sub_a == sub_b:
                continue
            c_ab, l_ab = blocks.inv_c_coupling(la, lb), blocks.inv_l_coupling(la, lb)
            if c_ab == 0.0 and l_ab == 0.0:
                continue
            edges.append(CouplingEdge(sub_a, p_a, sub_b, p_b, inv_c_eff=c_ab, inv_l_eff=l_ab))
    return CouplingGraph(tuple(edges))


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def run_analysis(config: DeviceConfig, naive: bool = False,
                 model: DeviceModel | None = None):
    """Full model (``model`` when it is already built), and the naive
    comparison alongside when requested, quantized on the same circuit."""
    from .report import build_report

    if model is None:
        model = build_model(config)
    naive_model = build_model(config, circuit=model.circuit, naive=True) if naive else None
    return build_report(model, naive_model=naive_model)


def run_sweep(config: DeviceConfig, param_path: str, values: Sequence[float]):
    """One report per value of ``param_path``. A point that leaves the
    circuit unchanged (a junction's lj_nh, say) requantizes the last one."""
    from .report import build_report

    reports, model = [], None
    for value in values:
        cfg = config.with_override(param_path, float(value))
        if model is not None and not model.circuit.fits(cfg):
            model = None
        model = build_model(cfg, circuit=model and model.circuit)
        reports.append(build_report(model, swept={param_path: float(value)}))
    return reports


@dataclass(frozen=True)
class BudgetRow:
    feature: str
    variation: str
    chi_hz: float
    delta_percent: float


def run_budget(config: DeviceConfig, base: DeviceModel | None = None) -> list[BudgetRow]:
    """Sensitivity budget: toggle each model feature / parameter and report
    the change of chi_qr against the full model (``base`` when it is
    already built). Rows that keep the circuit requantize the base."""
    if base is None:
        base = build_model(config)
    if base.dispersive is None:
        raise ConfigError("budget requires a qubit and a readout subsystem")
    chi0 = base.dispersive.chi_qr
    qubit = config.analysis.qubit
    rows: list[BudgetRow] = []

    def add(feature: str, variation: str, model: DeviceModel):
        chi = model.dispersive.chi_qr
        rows.append(BudgetRow(feature, variation, chi, 100.0 * (chi - chi0) / abs(chi0)))

    def requantize(cfg: DeviceConfig, **kwargs) -> DeviceModel:
        return build_model(cfg, circuit=base.circuit, **kwargs)

    add("coupling_hamiltonians", "qubit couplings only",
        requantize(config, graph_hook=lambda g: g.restricted_to(qubit)))

    readout = next((l for l in config.lines if l.name == config.analysis.readout), None)
    if readout is not None and readout.modes > 1:
        cfg = config.with_overrides({
            f"subsystems.{readout.name}.modes": 1,
            f"subsystems.{readout.name}.levels": [readout.levels[0]],
        })
        add("readout_first_harmonic", "excluded", requantize(cfg))

    if readout is not None:
        for sign in (+1, -1):
            cfg = config.with_override(
                f"subsystems.{readout.name}.z0_ohm", readout.z0_ohm * (1 + 0.03 * sign))
            add("line_impedance", f"{'+' if sign > 0 else '-'}3% on Z0", requantize(cfg))

    def scale_cells(factor):
        def hook(ident, maxwell):
            return MaxwellMatrix(names=maxwell.names, matrix=maxwell.matrix * factor,
                                 display_units=maxwell.display_units)
        return hook

    add("substrate_permittivity", "+2% on cell capacitances",
        build_model(config, circuit=build_circuit(config, scale_cells(1.02))))

    for jc in config.junctions:
        if jc.subsystem == qubit and jc.cj_f > 0.0:
            cfg = config.with_override(f"junctions.{jc.ident}.cj_ff", jc.cj_f * 1.1 / 1e-15)
            add("junction_capacitance", f"+10% on {jc.ident}", build_model(cfg))
            break

    def pad_hook(ident, maxwell):
        n = maxwell.size
        padded = np.zeros((n + 1, n + 1))
        padded[:n, :n] = maxwell.matrix
        spectator = 1e-18  # 1 aF to the local ground keeps the matrix regular
        padded[n, n] = spectator
        padded[n, 0] = padded[0, n] = -spectator
        padded[0, 0] += spectator
        return MaxwellMatrix(names=maxwell.names + (f"__pad_{ident}",), matrix=padded,
                             display_units=maxwell.display_units)

    pads = [f"__pad_{c.ident}" for c in config.cells]
    add("cell_padding", "spectator node added",
        build_model(config, circuit=build_circuit(config, pad_hook, pads)))

    return rows


def calibrate_junction(
    config: DeviceConfig,
    junction: str,
    target_fq_hz: float,
    lj_bounds_h: tuple[float, float],
):
    """Root-solve the full-pipeline qubit frequency against the junction
    inductance to 2e-12 H (see ``calibrate_scalar``), building one model per
    L_j tried. The response is verified to bracket the target at the
    endpoints (f_q decreases as L_j grows); a NaN f_q or a solve that does
    not converge raises NumericalError. Returns (lj, report). Every L_j is
    quantized on one circuit, so the lines are solved once: line loading
    does not depend on L_j."""
    from .report import build_report

    circuit = build_circuit(config)
    models: dict[float, DeviceModel] = {}

    def model_at(lj: float) -> DeviceModel:
        # the root is an L_j already built; keep each model to report it
        if lj not in models:
            models[lj] = build_model(config, circuit=circuit, lj_overrides={junction: lj})
        return models[lj]

    lj = calibrate_scalar(lambda x: model_at(x).dispersive.f_qubit, target_fq_hz,
                          lj_bounds_h, fmt=lambda f: f"{f / 1e9:.4f} GHz")
    return lj, build_report(model_at(lj), calibrated={junction: lj})
