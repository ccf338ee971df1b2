"""Per-state Fock reference that the occupation-array passes of trispin
are tested against.

A ``FockState`` holds one occupation tuple ``(up0, dn0, up1, dn1, ...)``,
and the ladder operators act on it one state at a time.  The fermionic
sign of a ladder operator on mode m counts the occupied modes in front
of m in the standard mode order, or behind it in the reversed one; the
physics must not depend on that choice.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from trispin.fock import Basis, Statistics, enumerate_basis

CREATE = "create"
ANNIHILATE = "annihilate"


@dataclass(frozen=True)
class FockState:
    occ: tuple
    statistics: Statistics

    @property
    def n_sites(self):
        return len(self.occ) // 2

    def occupation(self, site, species):
        return self.occ[2 * site + species.value]

    def site_occupations(self, site):
        return self.occ[2 * site], self.occ[2 * site + 1]


def fock_states(basis):
    """The rows of a basis as ``FockState`` objects."""
    return [FockState(tuple(row), basis.statistics)
            for row in basis.occ.tolist()]


def sector_rows(n_sites, statistics, n_atoms, site_cap=None,
                forbid_cross_occupancy=False,
                forbid_same_species_doubles=(False, False), n_up=None):
    """Every occupation row of ``n_atoms`` atoms on the ``2 n_sites``
    modes that the caps, exclusions and spin-up count admit, in
    lexicographic order: each multiset of modes is placed, then
    filtered.  ``forbid_same_species_doubles`` flags (up, down)."""
    cap = site_cap if site_cap is not None else n_atoms
    if statistics is Statistics.FERMION:
        cap = 1
    no_up_doubles, no_dn_doubles = forbid_same_species_doubles
    rows = []
    for modes in itertools.combinations_with_replacement(range(2 * n_sites),
                                                         n_atoms):
        occ = [modes.count(mode) for mode in range(2 * n_sites)]
        up, dn = occ[0::2], occ[1::2]
        if max(occ) > cap:
            continue
        if ((no_up_doubles and max(up) > 1)
                or (no_dn_doubles and max(dn) > 1)):
            continue
        if forbid_cross_occupancy and any(u and d for u, d in zip(up, dn)):
            continue
        if n_up is not None and sum(up) != n_up:
            continue
        rows.append(occ)
    return sorted(rows)


def sector_basis(n_sites, statistics, n_atoms=None, site_cap=None,
                 n_up=None, **exclusions):
    """``enumerate_basis`` for one atom per site, and any other sector a
    hand-built ``Basis`` on the rows of ``sector_rows``."""
    if n_atoms in (None, n_sites) and site_cap is None and n_up is None:
        return enumerate_basis(n_sites, statistics, **exclusions)
    rows = sector_rows(n_sites, statistics, n_atoms, site_cap=site_cap,
                       n_up=n_up, **exclusions)
    return Basis(rows, statistics, n_sites)


def _fermion_sign(occ, mode, mode_order):
    if mode_order == "standard":
        preceding = sum(occ[:mode])
    elif mode_order == "reversed":
        preceding = sum(occ[mode + 1:])
    else:
        raise ValueError(f"unknown mode order {mode_order!r}")
    return -1.0 if preceding % 2 else 1.0


def apply_ladder(state, site, species, kind, mode_order="standard"):
    """``(new_state, amplitude)`` of a creation or annihilation operator
    on one mode, or ``None`` when the result vanishes."""
    if not 0 <= site < state.n_sites:
        raise ValueError(f"site {site} out of range")
    mode = 2 * site + species.value
    n = state.occ[mode]
    occ = list(state.occ)
    fermions = state.statistics is Statistics.FERMION
    if kind == CREATE:
        if fermions and n == 1:
            return None
        occ[mode] = n + 1
        amp = math.sqrt(n + 1)
    elif kind == ANNIHILATE:
        if n == 0:
            return None
        occ[mode] = n - 1
        amp = math.sqrt(n)
    else:
        raise ValueError(f"unknown ladder kind {kind!r}")
    if fermions:
        amp = _fermion_sign(state.occ, mode, mode_order)
    return FockState(tuple(occ), state.statistics), amp


def transfer(state, to_site, to_species, from_site, from_species,
             mode_order="standard"):
    """a(to)^dag a(from): annihilate first, then create."""
    step = apply_ladder(state, from_site, from_species, ANNIHILATE, mode_order)
    if step is None:
        return None
    mid, amp1 = step
    step = apply_ladder(mid, to_site, to_species, CREATE, mode_order)
    if step is None:
        return None
    out, amp2 = step
    return out, amp1 * amp2


def hop(state, from_site, to_site, species, mode_order="standard"):
    """Species-preserving tunneling move between two distinct sites."""
    if from_site == to_site:
        raise ValueError("hop requires distinct sites")
    return transfer(state, to_site, species, from_site, species, mode_order)


def site_energy(n_up, n_dn, params):
    """Collision energy of one site; ``inf`` for an excluded pair."""
    energy = 0.0
    if n_up > 1:
        if math.isinf(params.u_upup):
            return math.inf
        energy += 0.5 * params.u_upup * n_up * (n_up - 1)
    if n_dn > 1:
        if math.isinf(params.u_dndn):
            return math.inf
        energy += 0.5 * params.u_dndn * n_dn * (n_dn - 1)
    if n_up and n_dn:
        if math.isinf(params.u_updn):
            return math.inf
        energy += params.u_updn * n_up * n_dn
    return energy


def h0_diagonal_by_site(basis, params):
    """The collision diagonal summed site by site over ``basis.occ``,
    channel by channel in the order of the module formula; ``ValueError``
    for a state that an infinite channel excludes.  ``build_h0`` must
    give these bits."""
    occ = basis.occ
    diag = np.zeros(len(basis))
    for site in range(basis.n_sites):
        up, dn = occ[:, 2 * site], occ[:, 2 * site + 1]
        channels = ((params.u_upup, up > 1), (params.u_dndn, dn > 1),
                    (params.u_updn, (up > 0) & (dn > 0)))
        if any(math.isinf(u) and hit.any() for u, hit in channels):
            raise ValueError("infinite energy state in basis")
        energy = np.zeros(len(basis))
        if not math.isinf(params.u_upup):
            energy += 0.5 * params.u_upup * up * (up - 1)
        if not math.isinf(params.u_dndn):
            energy += 0.5 * params.u_dndn * dn * (dn - 1)
        if not math.isinf(params.u_updn):
            energy += params.u_updn * up * dn
        diag += energy
    return diag
