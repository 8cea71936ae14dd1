"""lumpedq: dressed Hamiltonians of lumped superconducting circuit networks.

Per-cell electrostatic capacitance matrices plus a device partition
description go in; dressed frequencies, anharmonicities, coupling rates, and
cross-Kerr shifts come out.
"""

__version__ = "0.1.0"
