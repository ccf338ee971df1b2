"""Effective spin-1/2 models from two-species Hubbard dynamics on
triangular geometries: perturbative engine, closed-form couplings,
adiabatic-elimination oracle and spin-model diagnostics."""

from .fock import Species, Statistics, SectorSpec, Basis, enumerate_basis
from .hubbard import (LatticeGraph, HubbardParams, SparseOperator,
                      make_triangle, make_zigzag, make_triangular_patch,
                      hilbert_basis, sector_for, build_h0, build_v,
                      build_v_mixed, derive, projector_single_occupancy)
from .perturb import (EffectiveHamiltonian, PauliDecomposition, Partition,
                      spin_map, partition, h_eff_second,
                      h_eff_third, h_eff_up_to_third, cross_second,
                      pauli_decompose, validate_by_evolution,
                      DegenerateIntermediateError)
from .adiabatic import adiabatic_eliminate, truncated_series, series_compare
from .closedform import (CouplingSet, SpinHamiltonianSpec,
                         bosonic_couplings, fermionic_couplings,
                         complex_tunneling_couplings, rotated_xy_couplings,
                         chirality_point_params, build_spin_hamiltonian,
                         triangle_spin_spec, expected_string_coefficients)
from .raman import (SU2Rotation, rotate_tunneling, spin_rotation_matrix,
                    covariance_check)
from .chainlab import (SpectrumReport, diagonalize, chirality_operator,
                       zzz_chain_sparse, duality_scan,
                       detect_nnn_terms, zzz_ground_space_bruteforce,
                       circulating_state)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
