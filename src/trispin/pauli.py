"""Pauli-string helpers shared by the spin-model builders.

Strings are written with site 0 leftmost; the matching spin basis index
is big-endian, bit 0 of the leftmost site, with 0 = up and 1 = down.
"""

from __future__ import annotations

import functools
from itertools import product

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# permutation/phase form: letter -> (bit flip, phase(bit))
_ACTION = {
    "I": (0, (1.0, 1.0)),
    "X": (1, (1.0, 1.0)),
    "Y": (1, (1j, -1j)),
    "Z": (0, (1.0, -1.0)),
}


def string_matrix(string):
    """Dense matrix of an n-letter Pauli string."""
    out = np.array([[1.0 + 0j]])
    for letter in string:
        out = np.kron(out, PAULI[letter])
    return out


def embed(pattern, sites, n_sites):
    """Pauli string with ``pattern[k]`` placed on ``sites[k]``."""
    letters = ["I"] * n_sites
    for letter, site in zip(pattern, sites):
        if letters[site] != "I":
            raise ValueError("pattern places two letters on one site")
        letters[site] = letter
    return "".join(letters)


def all_strings(n_sites):
    for letters in product("IXYZ", repeat=n_sites):
        yield "".join(letters)


@functools.lru_cache(maxsize=None)
def string_masks(n_sites):
    """Bit-mask form of ``all_strings(n_sites)``, in the same order.

    Returns ``(strings, x, z, phase)``: the tuple of strings and, per
    string, its X/Y bit mask ``x``, its Z/Y bit mask ``z`` and
    ``phase = i^#Y``, so that P = phase * X^x Z^z with Y = i X Z.  The
    arrays are read-only; the result is cached per ``n_sites``.
    """
    shifts = np.arange(n_sites - 1, -1, -1)   # site i is bit n - 1 - i
    # letter of site i in string s: base-4 digit, 0..3 = I, X, Y, Z
    digits = (np.arange(4 ** n_sites)[:, None] >> (2 * shifts)) & 3
    x = ((digits == 1) | (digits == 2)) @ (1 << shifts)
    z = (digits >= 2) @ (1 << shifts)
    phase = np.array([1, 1j, -1, -1j])[(digits == 2).sum(axis=1) % 4]
    letters = np.frombuffer(b"IXYZ", dtype="S1")[digits]
    words = letters.view(f"S{n_sites}").ravel() if n_sites else [b""]
    strings = tuple(np.asarray(words).astype(str).tolist())
    for arr in (x, z, phase):
        arr.flags.writeable = False
    return strings, x, z, phase


def string_action(string):
    """Return (flip_mask, phase_fn) so that P|j> = phase(j)|j ^ mask>."""
    n = len(string)
    mask = 0
    flips = []
    for site, letter in enumerate(string):
        bit = n - 1 - site
        flip, phases = _ACTION[letter]
        if flip:
            mask |= 1 << bit
        flips.append((bit, phases))

    def phase(j):
        p = 1.0 + 0j
        for bit, phases in flips:
            p *= phases[(j >> bit) & 1]
        return p

    return mask, phase


def string_trace_with(string, matrix):
    """Tr(P M) evaluated without forming the string matrix."""
    mask, phase = string_action(string)
    dim = matrix.shape[0]
    # sum_j <j|P M|j> = sum_j phase(j') M[j', j] with j' = j ^ mask
    total = 0.0 + 0j
    for j in range(dim):
        jp = j ^ mask
        total += phase(jp) * matrix[jp, j]
    return total
