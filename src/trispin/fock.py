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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Species(Enum):
    UP = 0
    DOWN = 1


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


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
