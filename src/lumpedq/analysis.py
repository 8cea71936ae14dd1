"""End-to-end device analysis pipeline.

Stitches the modules together in two halves: ``build_circuit`` runs Maxwell
ingestion -> cell composition -> constraint elimination -> dressed blocks,
reading no junction's L_j or E_J, and ``build_model`` runs subsystem
quantization -> composite Hamiltonian -> dressed observables on a circuit.
Also provides the naive comparison mode, parameter sweeps, the sensitivity
budget, and junction inductance calibration, which rerun only the stages
their variation reaches. Every run is a pure function of the configuration,
so sweep points may execute in parallel.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

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
from .config import DeviceConfig, JunctionConfig, LineConfig, TransmonConfig
from .errors import ConfigError
from .loadedline import LineMode, LoadedLineSpec, calibrate_length, solve_modes
from .maxwell_io import parse_maxwell_file
from .netlist import (
    CellMatrices,
    CircuitBlocks,
    JunctionElement,
    NodeRegistry,
    PHI_0,
    ReducedCircuit,
    _two_terminal_stamp,
    compose_cells,
    extract_blocks,
    reduce_maxwell,
    reduce_network,
    weak_coupling_blocks,
)
from .roots import calibrate_scalar
from .subsystems import QuantizedSubsystem, TransmonSpec, diagonalize_transmon, quantize_line

# spread of a line's port loadings, relative to the larger, beyond which
# loading it singly by the larger is reported as an approximation
PORT_LOADING_RTOL = 1e-3


@dataclass(frozen=True)
class LineResult:
    spec: LoadedLineSpec  # its c_load is the loading used for the mode solve
    port_loadings: Mapping[str, float]  # dressed loading seen per port node
    modes: tuple[LineMode, ...]


@dataclass(frozen=True)
class DeviceCircuit:
    """Stages 1-5 of one configuration: the linear network, reduced and cut
    into blocks. It holds no junction's L_j or E_J."""

    config: DeviceConfig
    cells: tuple[CellMatrices, ...]  # stage 1: the reduced cells, in config order
    reduced: ReducedCircuit
    blocks: CircuitBlocks
    # sha256 of each Maxwell file's bytes as parsed, keyed by its config entry
    input_sha256: Mapping[str, str]

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
    # one name per flattened mode: the subsystem's, indexed when it has several
    flat_mode_names: tuple[str, ...]

    def dressed_mode_frequencies(self) -> list[float]:
        return mode_frequencies(self.spectrum)

    def cross_kerr(self) -> np.ndarray:
        return cross_kerr_matrix(self.spectrum)

    def coupling_rates(self) -> dict:
        return coupling_rates(self.subsystems, self.graph)


def _load_cells(config: DeviceConfig) -> tuple[list[CellMatrices], dict[str, str]]:
    """Stage 1: the reduced cells, and the sha256 of each Maxwell file as parsed."""
    cells, digests = [], {}
    for cc in config.cells:
        maxwell = parse_maxwell_file(cc.maxwell_file)
        digests[cc.maxwell_entry] = maxwell.source_sha256
        cells.append(reduce_maxwell(maxwell, config.datum, cc.ident, cc.ground_nets))
    return cells, digests


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


def _transmon_subsystem(tc: TransmonConfig, junction: JunctionConfig,
                        c_eff: float) -> tuple[TransmonSpec, QuantizedSubsystem]:
    """The transmon's spec, with E_J from its junction's ``lj_h`` or else
    its ``ej_j``, and its factor."""
    spec = TransmonSpec(
        c_eff=c_eff,
        ej=junction.ej_j if junction.lj_h is None else PHI_0**2 / junction.lj_h,
        q_offset=tc.q_offset_2e * 2.0 * constants.e,
        n_max=tc.n_max,
        levels=tc.levels,
    )
    return spec, dataclasses.replace(diagonalize_transmon(spec), name=tc.name)


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


def _line_subsystem(lc: LineConfig, port_loadings: Mapping[str, float],
                    naive: bool) -> tuple[LineResult, QuantizedSubsystem]:
    """Solve and quantize one line, loaded by the larger of its port loadings
    (read off the circuit's blocks, or their weak-coupling form when
    ``naive``); ``naive`` solves it unloaded with lumped-equivalent port ZPFs."""
    loading = 0.0
    if port_loadings and not naive:
        loading = max(port_loadings.values())
        spread = loading - min(port_loadings.values())
        if len(port_loadings) > 1 and spread > PORT_LOADING_RTOL * loading:
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
    sub = quantize_line(modes, levels=lc.levels, name=lc.name, ports=lc.nodes,
                        charge_zpf=charge_zpf, flux_zpf=flux_zpf)
    return LineResult(spec=spec, port_loadings=port_loadings, modes=tuple(modes)), sub


def _circuit_fields(config: DeviceConfig) -> tuple:
    """What stages 1-5 read of a configuration."""
    return (config.datum, config.cells, config.couplers, config.inductors,
            [(s.name, s.nodes) for s in (*config.transmons, *config.lines)],
            [(j.ident, j.node_neg, j.node_pos, j.subsystem, j.cj_f) for j in config.junctions])


def _circuit_from_cells(config: DeviceConfig, cells: Sequence[CellMatrices],
                        input_sha256: Mapping[str, str]) -> DeviceCircuit:
    """Stages 2-5 of ``config`` on its stage-1 ``cells``."""
    registry = NodeRegistry(
        datum=config.datum,
        subsystems={s.name: frozenset(s.nodes) for s in (*config.transmons, *config.lines)},
        couplers=frozenset(config.couplers),
    )
    netlist = compose_cells([*cells, _lumped_cell(config)], registry)
    reduced = reduce_network(netlist)
    return DeviceCircuit(config, tuple(cells), reduced, extract_blocks(reduced), input_sha256)


def build_circuit(config: DeviceConfig) -> DeviceCircuit:
    """Stages 1-5."""
    return _circuit_from_cells(config, *_load_cells(config))


def build_model(config: DeviceConfig, *, circuit: DeviceCircuit | None = None,
                naive: bool = False) -> DeviceModel:
    """Run the pipeline once: stages 6-7 of ``config`` on ``circuit``
    (``build_circuit(config)`` when not given), which must come from a
    config equal to ``config`` in every field stages 1-5 read.

    ``naive`` recomputes under conventional approximations: line modes are
    solved without loading (undressed eigenfields, lumped-equivalent port
    ZPFs), and the transmons and couplings read ``weak_coupling_blocks``
    in place of the eliminated inverse.
    """
    if circuit is None:
        circuit = build_circuit(config)
    elif not circuit.fits(config):
        raise ConfigError("configuration differs from its circuit's in a field stages 1-5 read")
    return _composite_model(config, circuit, _quantize(config, circuit, naive))


def _quantize(config: DeviceConfig, circuit: DeviceCircuit, naive: bool) -> tuple:
    """Stage 6 of ``config`` on ``circuit``: the tuple of its subsystems,
    their transmon specs and line results by name, and the coupling graph of
    their ports."""
    # no subsystem models a linear inductance on its own coordinate: refuse it, not drop it
    inductive = [label for label, y in zip(circuit.blocks.labels, np.diag(circuit.blocks.l_inv))
                 if y != 0.0]
    if inductive:
        raise ConfigError(f"retained coordinates {inductive} carry a linear inductance "
                          "(nonzero L^-1 diagonal), which the quantization would drop")
    blocks = weak_coupling_blocks(circuit.reduced) if naive else circuit.blocks

    # check each subsystem's coordinates, read off the reduction's block
    # index, against its ports, and quantize it while no subsystem has
    # failed its check
    junctions = {j.ident for j in config.junctions}
    subsystems: list[QuantizedSubsystem] = []
    transmon_specs, lines = {}, {}
    port_coord: dict[int, tuple[str, str]] = {}
    errors: list[str] = []
    for sc in (*config.transmons, *config.lines):
        coords = blocks.block_index[sc.name]
        labels = [blocks.labels[i] for i in coords]
        transmon = isinstance(sc, TransmonConfig)
        if transmon and (len(labels) != 1 or labels[0] not in junctions):
            errors.append(
                f"transmon {sc.name!r} must retain exactly one junction flux and nothing "
                f"else; it retains non-junction coordinates "
                f"{[lab for lab in labels if lab not in junctions]} and junction fluxes "
                f"{[lab for lab in labels if lab in junctions]}; give it one junction, "
                "and declare pad nodes consumed by the rotation or mark them as couplers")
        elif not transmon and sorted(labels) != sorted(sc.nodes):
            errors.append(
                f"line {sc.name!r} must retain exactly its nodes {list(sc.nodes)}, but "
                f"retains {labels}; a line carries no junction, and no junction may "
                "consume a line's port node")
        if errors:
            continue
        product, sub = _quantize_subsystem(config, blocks, sc, naive)
        (transmon_specs if transmon else lines)[sc.name] = product
        port_coord.update((i, (sc.name, "junction" if transmon else label))
                          for i, label in zip(coords, labels))
        subsystems.append(sub)
    if errors:
        raise ConfigError("\n".join(errors))
    return tuple(subsystems), transmon_specs, lines, _coupling_graph(port_coord, blocks)


def _quantize_subsystem(config: DeviceConfig, blocks: CircuitBlocks,
                        sc: TransmonConfig | LineConfig, naive: bool) -> tuple:
    """Stage 6 of the subsystem ``sc`` of ``config``: its transmon spec or
    line result, and its factor. The one reader of its parameters off
    ``blocks``: the C_eff of a transmon's junction flux, and the loading of
    each port node of a line."""
    dressed = {blocks.labels[i]: 1.0 / blocks.c_inv[i, i] for i in blocks.block_index[sc.name]}
    if isinstance(sc, TransmonConfig):
        [(ident, c_eff)] = dressed.items()
        junction = next(j for j in config.junctions if j.ident == ident)
        return _transmon_subsystem(sc, junction, c_eff)
    return _line_subsystem(sc, {node: dressed[node] for node in sc.nodes}, naive)


def _swap(model: DeviceModel, config: DeviceConfig, name: str) -> DeviceModel:
    """Stages 6-7 of ``config`` on the full ``model``: the subsystem ``name``
    requantized, and the model's other subsystems and coupling graph kept.
    ``config`` differs from the model's only in fields of that subsystem or
    of its junction that stages 1-5 do not read."""
    sc = next(s for s in (*config.transmons, *config.lines) if s.name == name)
    product, sub = _quantize_subsystem(config, model.circuit.blocks, sc, naive=False)
    transmon_specs, lines = dict(model.transmon_specs), dict(model.lines)
    (transmon_specs if isinstance(sc, TransmonConfig) else lines)[name] = product
    subsystems = tuple(sub if s.name == name else s for s in model.subsystems)
    return _composite_model(config, model.circuit,
                            (subsystems, transmon_specs, lines, model.graph))


def _composite_model(config: DeviceConfig, circuit: DeviceCircuit,
                     quantized: tuple) -> DeviceModel:
    """Stage 7 on the stage-6 products ``quantized`` of ``circuit``."""
    subsystems, transmon_specs, lines, graph = quantized
    flat_mode_names, spectrum, dispersive = _solve_composite(config, subsystems, graph)
    return DeviceModel(
        config=config, circuit=circuit, subsystems=subsystems, transmon_specs=transmon_specs,
        lines=lines, graph=graph, spectrum=spectrum, dispersive=dispersive,
        flat_mode_names=flat_mode_names)


def _solve_composite(config: DeviceConfig, subsystems: Sequence[QuantizedSubsystem],
                     graph: CouplingGraph) -> tuple[
        tuple[str, ...], DressedSpectrum, DispersiveObservables | None]:
    """Stage 7: the composite of ``subsystems`` coupled by ``graph``: its
    flattened mode names, its dressed spectrum and, when the config names a
    qubit and a readout, their dispersive observables."""
    flat_mode_names = tuple(f"{sub.name}[{m}]" if len(sub.factors) > 1 else sub.name
                            for sub in subsystems for m in range(len(sub.factors)))
    offsets = itertools.accumulate((len(sub.factors) for sub in subsystems), initial=0)
    first_mode = {sub.name: k for sub, k in zip(subsystems, offsets)}  # its flattened index
    pair = bool(config.analysis.qubit and config.analysis.readout)
    qubit_mode = first_mode[config.analysis.qubit] if pair else None

    h = build_full_hamiltonian(subsystems, graph, dimension_cap=config.analysis.dimension_cap)
    spectrum = diagonalize(h, observable_labels(subsystems, qubit_mode),
                           min_overlap=config.analysis.min_overlap)
    dispersive = (extract_dispersive(spectrum, qubit_mode, first_mode[config.analysis.readout])
                  if pair else None)
    return flat_mode_names, spectrum, dispersive


def _coupling_graph(port_coord: Mapping[int, tuple[str, str]],
                    blocks: CircuitBlocks) -> CouplingGraph:
    """One edge per pair of ports in different subsystems with a nonzero
    capacitive or inductive coupling reciprocal; ``port_coord`` maps each
    port's coordinate index in ``blocks`` to its (subsystem, port)."""
    edges = []
    for (a, (sub_a, p_a)), (b, (sub_b, p_b)) in itertools.combinations(port_coord.items(), 2):
        if sub_a == sub_b:
            continue
        c_ab, l_ab = 2.0 * blocks.c_inv[a, b], 2.0 * blocks.l_inv[a, b]
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
    already built). Each row reruns the stages its variation reaches: the
    coupling row stage 7 on the base subsystems, the readout rows the
    readout line and stage 7, and the rows that change the circuit
    (substrate, junction capacitance, cell padding) stages 2-7 on the base
    circuit's stage-1 cells. A ``base`` whose circuit does not fit
    ``config`` is a ConfigError."""
    if base is None:
        base = build_model(config)
    elif not base.circuit.fits(config):
        raise ConfigError("configuration differs from its base model's in a field stages 1-5 read")
    if base.dispersive is None:
        raise ConfigError("budget requires a qubit and a readout subsystem")
    chi0 = base.dispersive.chi_qr
    qubit = config.analysis.qubit
    rows: list[BudgetRow] = []

    def add(feature: str, variation: str, dispersive: DispersiveObservables):
        chi = dispersive.chi_qr
        rows.append(BudgetRow(feature, variation, chi, 100.0 * (chi - chi0) / abs(chi0)))

    add("coupling_hamiltonians", "qubit couplings only",
        _solve_composite(config, base.subsystems, base.graph.restricted_to(qubit))[2])

    readout = next(l for l in config.lines if l.name == config.analysis.readout)
    if readout.modes > 1:
        cfg = config.with_overrides({
            f"subsystems.{readout.name}.modes": 1,
            f"subsystems.{readout.name}.levels": [readout.levels[0]],
        })
        add("readout_first_harmonic", "excluded", _swap(base, cfg, readout.name).dispersive)

    for sign in (+1, -1):
        cfg = config.with_override(
            f"subsystems.{readout.name}.z0_ohm", readout.z0_ohm * (1 + 0.03 * sign))
        add("line_impedance", f"{'+' if sign > 0 else '-'}3% on Z0",
            _swap(base, cfg, readout.name).dispersive)

    cells, input_sha256 = base.circuit.cells, base.circuit.input_sha256

    def rebuild(cfg: DeviceConfig, varied: Sequence[CellMatrices]) -> DispersiveObservables:
        return build_model(cfg, circuit=_circuit_from_cells(cfg, varied, input_sha256)).dispersive

    add("substrate_permittivity", "+2% on cell capacitances",
        rebuild(config, [dataclasses.replace(c, c_mat=c.c_mat * 1.02) for c in cells]))

    for jc in config.junctions:
        if jc.subsystem == qubit and jc.cj_f > 0.0:
            cfg = config.with_override(f"junctions.{jc.ident}.cj_ff", jc.cj_f * 1.1 / 1e-15)
            add("junction_capacitance", f"+10% on {jc.ident}", rebuild(cfg, cells))
            break

    def padded(cell: CellMatrices) -> CellMatrices:
        c_mat = np.pad(cell.c_mat, (0, 1))
        c_mat[-1, -1] = 1e-18  # 1 aF to the datum keeps the matrix regular
        return dataclasses.replace(cell, nodes=(*cell.nodes, f"__pad_{cell.ident}"),
                                   c_mat=c_mat, l_inv=np.pad(cell.l_inv, (0, 1)))

    cfg = config.with_override("couplers", [*config.couplers,
                                            *(f"__pad_{c.ident}" for c in cells)])
    add("cell_padding", "spectator node added", rebuild(cfg, [padded(c) for c in cells]))

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
    not converge raises NumericalError. Returns (lj, report). The first
    L_j tried is the first bound, and its model is ``build_model`` of the
    config with the junction's lj_h there; each other L_j swaps in the
    junction's transmon at that L_j (``_swap``), so each model's config
    holds its L_j. An unknown ``junction``, or a bound that is not positive
    and finite, is a ConfigError."""
    from .report import build_report

    jc = next((j for j in config.junctions if j.ident == junction), None)
    if jc is None:
        raise ConfigError(f"calibrate_junction: {junction!r} names no junction")
    if not all(lj > 0.0 and math.isfinite(lj) for lj in lj_bounds_h):
        raise ConfigError(f"calibrate_junction: bounds must be positive and finite: {lj_bounds_h}")

    def at(lj: float) -> DeviceConfig:
        return dataclasses.replace(config, junctions=tuple(
            dataclasses.replace(j, lj_h=lj, ej_j=None) if j is jc else j
            for j in config.junctions))

    lo = lj_bounds_h[0]
    models = {lo: build_model(at(lo))}

    def model_at(lj: float) -> DeviceModel:
        # the root is an L_j already built; keep each model to report it
        if lj not in models:
            models[lj] = _swap(models[lo], at(lj), jc.subsystem)
        return models[lj]

    lj = calibrate_scalar(lambda x: model_at(x).dispersive.f_qubit, target_fq_hz,
                          lj_bounds_h, fmt=lambda f: f"{f / 1e9:.4f} GHz")
    return lj, build_report(model_at(lj), calibrated={junction: lj})
