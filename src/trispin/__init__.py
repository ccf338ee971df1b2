"""Effective spin-1/2 models from two-species Hubbard dynamics on
triangular geometries: perturbative engine, closed-form couplings,
adiabatic-elimination oracle and spin-model diagnostics."""

from .fock import Species, Statistics, Basis, enumerate_basis
from .hubbard import (LatticeGraph, HubbardParams, SparseOperator,
                      make_triangle, make_zigzag, make_triangular_patch,
                      hilbert_basis, build_h0, build_v,
                      build_v_mixed, derive, projector_single_occupancy)
from .perturb import (EffectiveHamiltonian, PauliDecomposition, Partition,
                      spin_map, partition, h_eff_second,
                      h_eff_third, pauli_decompose,
                      DegenerateIntermediateError)
from .adiabatic import adiabatic_eliminate, series_compare
from .closedform import (CouplingSet, bosonic_couplings, fermionic_couplings,
                         complex_tunneling_couplings, rotated_xy_couplings,
                         chirality_point_params, build_spin_hamiltonian,
                         triangle_strings, expected_string_coefficients)
from .raman import (SU2Rotation, rotate_tunneling, spin_rotation_matrix,
                    covariance_check)
from .chainlab import (SpectrumReport, diagonalize,
                       zzz_chain_sparse, duality_scan,
                       detect_nnn_terms, circulating_state)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
