"""Occupation-number bases for two atomic species.

Sites are labeled 0..n_sites-1 and each site carries two internal modes,
one per species.  A state is the flat occupation row
``(n_up[0], n_dn[0], n_up[1], n_dn[1], ...)`` so that the global mode
index of (site, species) is ``2*site + species``.  That flat order is
also the fermionic sign convention: the amplitude of a ladder operator
on mode m picks up (-1)**(number of occupied modes preceding m).

A ``Basis`` is its occupation array: ``occ`` (dim x 2n) holds one state
per row, and ``keys`` reads each row as one mixed-radix integer, mode 0
the most significant digit, with radix one more than the largest
occupation in the basis.  Equal keys are equal rows, and lexicographic
order of the rows is ascending key order, so the keys of an
``enumerate_basis`` basis are strictly increasing.  Operators are
assembled from ``occ`` by array passes, and a moved state is found with
``Basis.locate`` on its key.  The per-state reference they are tested
against lives with the tests, in ``tests/fock_reference.py``.

A basis is structure that does not depend on any coupling: its arrays
are read-only, and ``Basis.moves`` lists, for one pair of modes, where
one hopping atom takes every state and with which amplitude.
``Basis.plan`` keeps the structure that operators assembled from those
moves share, such as their sparse pattern and the fixed amplitudes in
it, keyed by what it depends on, so an operator assembled again on the
same basis only scales those amplitudes by its couplings.
``Basis.site_occupations`` and ``Basis.single_occupancy`` hold the
per-site occupations and the single-occupancy positions that collision
energies and the M block read.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np


# the enumeration traces about 400-450 bytes per state (178 MiB for the
# 490,314 bosonic states at n = 8), so 10^6 states hold it near 0.4 GB; a
# sector is counted before it is built, and the limit admits fermionic
# n <= 11 and bosonic n <= 8, past every size in use (the 3 x 3 patch at
# 48,620 states, bosonic n = 7 at 77,520), and refuses fermionic n = 12
# (2,704,156) and bosonic n = 9 (3,124,550) before anything is allocated
MAX_BASIS_STATES = 1_000_000
# operator plans kept per basis (``Basis.plan``), the oldest dropped first:
# a triangle derivation uses two, the species-diagonal V and its
# Raman-rotated one
PLANS_PER_BASIS = 16


class Species(Enum):
    UP = 0
    DOWN = 1


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


# The nonzero moves of an atom between two modes of a basis, forward
# (way 0) and back (way 1), state by state with the forward move first.  ``rows`` are the target positions, ``cols`` the
# source positions, ``amp`` the fermionic sign or the bosonic factor
# sqrt(n_from) sqrt(n_to + 1), and ``dropped`` counts the moves whose
# target is not in the basis.
Moves = namedtuple("Moves", ["rows", "cols", "way", "amp", "dropped"])


@dataclass(eq=False)
class Basis:
    """Ordered basis: ``occ`` (rows of occupations, stored as int64)
    and, derived from it, ``radix``, ``place`` (the key weight of each
    mode) and ``keys``.  Any rows in any order make a basis; keys that
    would overflow int64 raise ``ValueError``.  The arrays are read-only
    views, so the plans kept on the basis cannot go stale.
    """

    occ: np.ndarray = field(repr=False)
    statistics: Statistics
    n_sites: int
    radix: int = field(init=False, repr=False)
    place: np.ndarray = field(init=False, repr=False)
    keys: np.ndarray = field(init=False, repr=False)
    _plans: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        n_modes = 2 * self.n_sites
        self.occ = np.asarray(self.occ, dtype=np.int64).reshape(-1, n_modes)
        self.radix = max(2, int(self.occ.max(initial=0)) + 1)
        if self.radix ** n_modes - 1 > np.iinfo(np.int64).max:
            raise ValueError(f"occupation keys overflow int64: radix "
                             f"{self.radix} over {n_modes} modes")
        # key weight of each mode, mode 0 the most significant
        self.place = self.radix ** np.arange(n_modes - 1, -1, -1,
                                             dtype=np.int64)
        self.keys = self.occ @ self.place
        self._key_order = np.argsort(self.keys, kind="stable")
        self._sorted_keys = self.keys[self._key_order]
        for array in (self.occ, self.place, self.keys, self._key_order,
                      self._sorted_keys):
            array.flags.writeable = False

    def locate(self, keys):
        """Basis positions of occupation keys, -1 where a key is absent."""
        slot = np.searchsorted(self._sorted_keys, keys)
        slot = np.minimum(slot, len(self._sorted_keys) - 1)
        found = self._sorted_keys[slot] == keys
        return np.where(found, self._key_order[slot], -1)

    def plan(self, key, build):
        """The operator plan kept under ``key``, made by
        ``build(basis, key)`` on the first request; a basis keeps
        ``PLANS_PER_BASIS`` of them."""
        plan = self._plans.get(key)
        if plan is None:
            plan = build(self, key)
            if len(self._plans) >= PLANS_PER_BASIS:
                del self._plans[next(iter(self._plans))]
            self._plans[key] = plan
        return plan

    @cached_property
    def site_occupations(self):
        """The occupations of each species, (up, down), each laid out
        (site, state); read-only, built on first use."""
        columns = tuple(np.ascontiguousarray(self.occ[:, species::2].T)
                        for species in (0, 1))
        for array in columns:
            array.flags.writeable = False
        return columns

    @cached_property
    def single_occupancy(self):
        """Positions of the states with exactly one atom (either species)
        on every site, read-only, built on first use; ``ValueError``
        unless every state holds one atom per site."""
        up, dn = self.site_occupations
        per_site = up + dn
        if (per_site.sum(axis=0) != self.n_sites).any():
            raise ValueError(
                "single-occupancy subspace needs one atom per site")
        positions = np.flatnonzero((per_site == 1).all(axis=0))
        positions.flags.writeable = False
        return positions

    def moves(self, a, b):
        """The ``Moves`` of one atom from mode ``a`` to mode ``b`` and
        back.

        One array pass over ``occ``: amplitudes and fermionic signs come
        from the occupation columns and the atoms in front of each mode,
        and the targets are found by key (``locate``).
        """
        frm, to = np.array([a, b]), np.array([b, a])
        occ = self.occ
        n_from, n_to = occ[:, frm], occ[:, to]
        live = n_from > 0
        fermions = self.statistics is Statistics.FERMION
        if fermions:
            live &= n_to == 0
        col, way = np.nonzero(live)
        n_from, n_to = n_from[col, way], n_to[col, way]
        frm, to = frm[way], to[way]
        # a target digit past the largest occupation is in no basis state
        # and would carry into the next mode's digit
        fits = n_to + 1 < self.radix
        row = np.full(len(col), -1)
        row[fits] = self.locate(self.keys[col[fits]] - self.place[frm[fits]]
                                + self.place[to[fits]])
        keep = row >= 0
        col, way, frm, to = col[keep], way[keep], frm[keep], to[keep]
        if fermions:
            # the sign of a(to)^dag a(frm) counts the occupied modes
            # strictly between the two, so it is the same in either mode
            # order: the atoms in front of both, less the atom just
            # removed when it sat in front of `to`
            ahead = np.stack([occ[:, :a].sum(axis=1), occ[:, :b].sum(axis=1)],
                             axis=1)
            odd = (ahead[col, way] + ahead[col, 1 - way] - (frm < to)) % 2
            amp = np.where(odd, -1.0, 1.0)
        else:
            amp = np.sqrt(n_from[keep]) * np.sqrt(n_to[keep] + 1)
        # basis positions fit in 32 bits; `way` indexes the pair
        # (coupling, conjugate coupling)
        return Moves(row[keep].astype(np.int32), col.astype(np.int32),
                     way.astype(np.uint8), amp, len(keep) - int(keep.sum()))

    def __len__(self):
        return len(self.occ)


def enumerate_basis(n_sites, statistics, forbid_cross_occupancy=False,
                    forbid_same_species_doubles=(False, False)):
    """The states of ``n_sites`` atoms on ``n_sites`` sites, in
    lexicographic occupation order.

    Rows grow one mode at a time: a partial row branches into the
    ascending occupations of the next mode that the later modes, each
    within its cap, can still complete.  Each mode keeps only its digits
    and parent rows; the full rows are read back from the last mode.
    Fermionic modes are capped at one atom, and so are the bosonic modes
    of each species flagged in ``forbid_same_species_doubles`` (up,
    down); ``forbid_cross_occupancy`` then drops every row where a site
    hosts both species.  Either exclusion realizes an infinite collision
    energy exactly.

    The rows are counted before they are built, and a sector of more
    than ``MAX_BASIS_STATES`` raises ``ValueError``; with one species
    capped, the count is the uncapped one, an upper bound.
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    n_modes = 2 * n_sites
    fermions = statistics is Statistics.FERMION
    no_up_doubles, no_dn_doubles = forbid_same_species_doubles
    capped = (fermions or no_up_doubles, fermions or no_dn_doubles)
    # n atoms on 2n modes, at most one per mode or any number per mode
    dim = (math.comb(n_modes, n_sites) if all(capped)
           else math.comb(n_modes + n_sites - 1, n_sites))
    if dim > MAX_BASIS_STATES:
        raise ValueError(f"sector of {dim} states exceeds the limit of "
                         f"{MAX_BASIS_STATES}")
    cap = np.tile(np.where(capped, 1, n_sites), n_sites)
    # the atoms that the modes after each mode can hold
    room = np.cumsum(cap[::-1])[::-1] - cap

    placed = np.zeros(1, dtype=np.int64)
    digits, parents = [], []
    for mode in range(n_modes):
        need = n_sites - placed
        low = np.maximum(need - room[mode], 0)
        count = np.maximum(np.minimum(need, cap[mode]) - low + 1, 0)
        parent = np.repeat(np.arange(len(placed)), count)
        # rank among the siblings plus the lowest digit
        digit = (np.arange(len(parent)) - (np.cumsum(count) - count)[parent]
                 + low[parent])
        placed = placed[parent] + digit
        digits.append(digit)
        parents.append(parent)
    occ = np.empty((len(placed), n_modes), dtype=np.int64)
    row = np.arange(len(placed))
    for mode in range(n_modes - 1, -1, -1):
        occ[:, mode] = digits[mode][row]
        row = parents[mode][row]
    if forbid_cross_occupancy:
        occ = occ[~((occ[:, 0::2] > 0) & (occ[:, 1::2] > 0)).any(axis=1)]
    return Basis(occ=occ, statistics=statistics, n_sites=n_sites)
