"""lumpedq: dressed Hamiltonians of lumped superconducting circuit networks.

Per-cell electrostatic capacitance matrices plus a device partition
description go in; dressed frequencies, anharmonicities, coupling rates, and
cross-Kerr shifts come out.
"""

__version__ = "0.1.0"

from .composite import (
    CouplingEdge,
    CouplingGraph,
    DispersiveObservables,
    DressedSpectrum,
    build_full_hamiltonian,
    cross_kerr_matrix,
    diagonalize,
    extract_dispersive,
)
from .config import DeviceConfig, load_device_config, parse_device_config
from .loadedline import (
    LineMode,
    LoadedLineSpec,
    calibrate_length,
    characteristic_lhs,
    solve_modes,
)
from .netlist import (
    CellMatrices,
    CircuitBlocks,
    CompositeNetlist,
    JunctionElement,
    MaxwellMatrix,
    NodeRegistry,
    ReducedCircuit,
    compose_cells,
    coupler_kernel,
    extract_blocks,
    reduce_maxwell,
    reduce_network,
    rotate_to_junction_basis,
    schur_eliminate,
)
from .subsystems import (
    ModeFactor,
    QuantizedSubsystem,
    TransmonSpec,
    diagonalize_transmon,
    quantize_line,
)
