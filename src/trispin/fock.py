"""Occupation-number states and ladder operators for two atomic species.

Sites are labeled 0..n_sites-1 and each site carries two internal modes,
one per species.  A state stores the flat occupation tuple
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
``Basis.locate`` on its key.  ``FockState`` with ``apply_ladder``,
``transfer`` and ``hop``, in either fermionic mode order, is the
per-state reference that the array passes are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Species(Enum):
    UP = 0
    DOWN = 1


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


CREATE = "create"
ANNIHILATE = "annihilate"


@dataclass(frozen=True)
class FockState:
    """Occupation numbers of both species on every site.

    ``occ`` is the flat tuple (up0, dn0, up1, dn1, ...); fermionic states
    keep every entry at 0 or 1.
    """

    occ: tuple
    statistics: Statistics

    @property
    def n_sites(self):
        return len(self.occ) // 2

    def occupation(self, site, species):
        return self.occ[2 * site + species.value]

    def site_occupations(self, site):
        return self.occ[2 * site], self.occ[2 * site + 1]

    @property
    def n_up(self):
        return sum(self.occ[0::2])

    @property
    def n_down(self):
        return sum(self.occ[1::2])

    def __str__(self):
        sites = [f"({self.occ[2*i]},{self.occ[2*i+1]})" for i in range(self.n_sites)]
        return "|" + " ".join(sites) + ">"


@dataclass(frozen=True)
class SectorSpec:
    """Conserved-number sector selecting a finite block of Fock space.

    Either fix (n_up, n_down) or the total atom number.  ``site_cap``
    bounds the per-site per-species occupation (fermions are capped at 1
    regardless).  ``forbid_cross_occupancy`` drops every configuration
    where some site hosts both species at once; this realizes an
    infinite cross-species collision energy as an exact exclusion.
    """

    n_up: int | None = None
    n_down: int | None = None
    n_total: int | None = None
    site_cap: int | None = None
    forbid_cross_occupancy: bool = False
    forbid_same_species_doubles: bool = False

    def __post_init__(self):
        if (self.n_up is None) != (self.n_down is None):
            raise ValueError("sector must fix both n_up and n_down, "
                             "or neither")
        fixed_pair = self.n_up is not None
        if not fixed_pair and self.n_total is None:
            raise ValueError("sector must fix (n_up, n_down) or n_total")
        if fixed_pair and self.n_total is not None:
            if self.n_up + self.n_down != self.n_total:
                raise ValueError("inconsistent sector: n_up + n_down != n_total")
        for value in (self.n_up, self.n_down, self.n_total):
            if value is not None and value < 0:
                raise ValueError("negative atom number in sector")
        if self.site_cap is not None and self.site_cap < 0:
            raise ValueError("negative occupation cutoff")

    @property
    def total(self):
        if self.n_total is not None:
            return self.n_total
        return self.n_up + self.n_down


@dataclass(eq=False)
class Basis:
    """Ordered sector basis: ``occ`` (rows of occupations, stored as
    int64) and, derived from it, ``radix``, ``place`` (the key weight of
    each mode) and ``keys``.  Keys that would overflow int64 raise
    ``ValueError``.
    """

    occ: np.ndarray = field(repr=False)
    statistics: Statistics
    n_sites: int
    sector: SectorSpec
    radix: int = field(init=False, repr=False)
    place: np.ndarray = field(init=False, repr=False)
    keys: np.ndarray = field(init=False, repr=False)

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

    @property
    def states(self):
        """The rows as ``FockState`` objects, built on every read."""
        return [FockState(tuple(row), self.statistics)
                for row in self.occ.tolist()]

    def locate(self, keys):
        """Basis positions of occupation keys, -1 where a key is absent."""
        slot = np.searchsorted(self._sorted_keys, keys)
        slot = np.minimum(slot, len(self._sorted_keys) - 1)
        found = self._sorted_keys[slot] == keys
        return np.where(found, self._key_order[slot], -1)

    def __len__(self):
        return len(self.occ)

    @property
    def dim(self):
        return len(self.occ)


def enumerate_basis(n_sites, statistics, sector):
    """Enumerate all states of a sector in lexicographic occupation order.

    Rows grow one mode at a time: a partial row branches into the
    ascending occupations of the next mode that the later modes, at most
    ``cap`` each, can still complete.  Each mode keeps only its digits
    and parent rows; the full rows are read back from the last mode.

    Raises ``ValueError("empty basis")`` when the sector admits no
    states (e.g. more fermions than available modes).
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    total = sector.total
    cap = 1 if statistics is Statistics.FERMION else (
        sector.site_cap if sector.site_cap is not None else total)
    n_modes = 2 * n_sites

    placed = np.zeros(1, dtype=np.int64)
    digits, parents = [], []
    for mode in range(n_modes):
        need = total - placed
        low = np.maximum(need - cap * (n_modes - mode - 1), 0)
        count = np.maximum(np.minimum(need, cap) - low + 1, 0)
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

    up, dn = occ[:, 0::2], occ[:, 1::2]
    keep = np.ones(len(occ), dtype=bool)
    if sector.n_up is not None:
        keep &= (up.sum(axis=1) == sector.n_up) \
            & (dn.sum(axis=1) == sector.n_down)
    if sector.forbid_cross_occupancy:
        keep &= ~((up > 0) & (dn > 0)).any(axis=1)
    if sector.forbid_same_species_doubles:
        keep &= ~(occ > 1).any(axis=1)
    if not keep.any():
        raise ValueError("empty basis")
    return Basis(occ=occ[keep], statistics=statistics, n_sites=n_sites,
                 sector=sector)


def _fermion_sign(occ, mode, mode_order):
    if mode_order == "standard":
        preceding = sum(occ[:mode])
    elif mode_order == "reversed":
        preceding = sum(occ[mode + 1:])
    else:
        raise ValueError(f"unknown mode order {mode_order!r}")
    return -1.0 if preceding % 2 else 1.0


def apply_ladder(state, site, species, kind, mode_order="standard"):
    """Apply a creation or annihilation operator to one mode.

    Returns ``(new_state, amplitude)`` or ``None`` when the result
    vanishes (annihilating an empty mode, creating on an occupied
    fermionic mode).  Bosonic amplitudes are sqrt(n+1) / sqrt(n);
    fermionic amplitudes are +-1 per the global mode-ordering sign.
    """
    if not 0 <= site < state.n_sites:
        raise ValueError(f"site {site} out of range")
    mode = 2 * site + species.value
    n = state.occ[mode]
    occ = list(state.occ)
    if kind == CREATE:
        if state.statistics is Statistics.FERMION:
            if n == 1:
                return None
            occ[mode] = 1
            amp = _fermion_sign(state.occ, mode, mode_order)
        else:
            occ[mode] = n + 1
            amp = math.sqrt(n + 1)
    elif kind == ANNIHILATE:
        if n == 0:
            return None
        occ[mode] = n - 1
        if state.statistics is Statistics.FERMION:
            amp = _fermion_sign(state.occ, mode, mode_order)
        else:
            amp = math.sqrt(n)
    else:
        raise ValueError(f"unknown ladder kind {kind!r}")
    return FockState(tuple(occ), state.statistics), amp


def transfer(state, to_site, to_species, from_site, from_species,
             mode_order="standard"):
    """Move one atom between modes: create(to) after annihilate(from).

    The composition order matters for fermionic signs and matches the
    normal-ordered bilinear a(to)^dag a(from).
    """
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
    """Species-preserving tunneling move between two sites."""
    if from_site == to_site:
        raise ValueError("hop requires distinct sites")
    return transfer(state, to_site, species, from_site, species, mode_order)
