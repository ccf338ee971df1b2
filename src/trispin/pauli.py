"""Pauli-string helpers shared by the spin-model builders.

Strings are written with site 0 leftmost; the matching spin basis index
is big-endian, bit 0 of the leftmost site, with 0 = up and 1 = down.
In mask form a string is P = i^#Y X^x Z^z, with x the bit mask of its
X/Y sites and z that of its Z/Y sites; site i is bit n - 1 - i.
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


def string_matrix(string):
    """Dense matrix of an n-letter Pauli string as a Kronecker product:
    the reference that ``pauli_sum`` is tested against."""
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


def _mask_form(codes):
    """Masks ``x``, ``z`` and ``phase = i^#Y`` of strings given as rows
    of letter codes 0..3 = I, X, Y, Z (Y = i X Z gives the phase)."""
    bits = 1 << np.arange(codes.shape[1] - 1, -1, -1)
    x = ((codes == 1) | (codes == 2)) @ bits
    z = (codes >= 2) @ bits
    phase = np.array([1, 1j, -1, -1j])[(codes == 2).sum(axis=1) % 4]
    return x, z, phase


@functools.lru_cache(maxsize=None)
def string_masks(n_sites):
    """Bit-mask form of ``all_strings(n_sites)``, in the same order.

    Returns ``(strings, x, z, phase)``; the arrays are read-only and the
    result is cached per ``n_sites``.
    """
    shifts = np.arange(n_sites - 1, -1, -1)
    # letter of site i in string s: base-4 digit, 0..3 = I, X, Y, Z
    digits = (np.arange(4 ** n_sites)[:, None] >> (2 * shifts)) & 3
    x, z, phase = _mask_form(digits)
    strings = tuple(all_strings(n_sites))
    for arr in (x, z, phase):
        arr.flags.writeable = False
    return strings, x, z, phase


def pauli_sum(coeffs, n_sites):
    """Dense matrix of sum_s c_s P_s for a string -> coefficient map.

    P|k> = i^#Y (-1)^(z.k) |k ^ x>, so string s puts c_s i^#Y (-1)^(z.k)
    at [k ^ x, k]; the strings sharing a flip mask x are summed at once.
    """
    dim = 2 ** n_sites
    out = np.zeros((dim, dim), dtype=complex)
    codes = np.array([["IXYZ".index(ch) for ch in s] for s in coeffs],
                     dtype=np.int64).reshape(len(coeffs), n_sites)
    x, z, phase = _mask_form(codes)
    weights = phase * np.array(list(coeffs.values()), dtype=complex)
    k = np.arange(dim)
    parity = np.zeros(1, dtype=np.int64)   # bit parity of 0 .. dim - 1
    for _ in range(n_sites):
        parity = np.concatenate([parity, 1 - parity])
    for flip in np.unique(x):
        pick = x == flip
        signs = 1 - 2 * parity[z[pick, None] & k]
        out[k ^ flip, k] += weights[pick] @ signs
    return out


def string_trace_with(string, matrix):
    """Tr(P M) with P the Kronecker-product matrix of the string.

    Independent of the mask form, so it serves as the reference for
    ``perturb.pauli_decompose``.
    """
    return np.sum(string_matrix(string) * np.asarray(matrix).T)
