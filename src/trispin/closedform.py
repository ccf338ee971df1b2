"""Closed-form effective couplings and explicit spin-model builders.

Every coupling listed here has been certified against two independent
routes: the order-2/3 perturbative engine and the exact elimination of
the multiply-occupied block.  Conventions are pinned by the operator
builders in :mod:`trispin.hubbard`: the tunneling term is
-J a(from)^dag a(to) + h.c. on each directed edge, and triangle link j
joins sites j and j+1 (mod 3).

Sign notes fixed by the cross-validation (see trispin.conformance for
the audit machinery):

* bosonic A_j, B_j, lambda1..lambda4 hold as stated below to machine
  precision at every order-3 string;
* fermionic mu3, mu4 carry the sign produced by the anticommuting
  exchange loops (the variant with both signs flipped circulates in
  closed-form listings; ``trispin.conformance`` audits it);
* for purely imaginary tunneling, the antisymmetric two-site exchange
  (sigma^x sigma^y - sigma^y sigma^x) and the three-site mixed-product
  term have the coefficients named tau3 and tau4 here; the fermionic
  tau4 reduces to the standard flux-induced chirality coefficient
  -3|J|^3/U^2 at equal couplings.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import pauli
from .fock import Species, Statistics
from .hubbard import HubbardParams

@dataclass
class CouplingSet:
    """Named effective couplings; per-link entries are 3-tuples.

    Array-valued tunnelings give array-valued couplings, one entry per
    point; a value the tunnelings do not enter stays a scalar.
    """

    family: str
    values: dict

    def __getitem__(self, name):
        return self.values[name]

    def link(self, name, j):
        value = self.values[name]
        return value[j] if isinstance(value, (tuple, list)) else value


def _triangle_tunnelings(params):
    """Per-link (up, down) tunnelings; complex scalars, or complex arrays
    when the parameters carry arrays of amplitudes."""
    ju = [params.j(l, Species.UP) for l in range(3)]
    jd = [params.j(l, Species.DOWN) for l in range(3)]
    return ju, jd


def _require_real(js, what):
    if any(np.any(abs(j.imag) > 1e-14 * np.maximum(1.0, abs(j))) for j in js):
        raise ValueError(f"{what} formulas require real tunnelings")
    return [j.real for j in js]


def _collision_energy(u, channel):
    """``u`` if its cube is a finite normal float, else ``ValueError``.

    The closed forms are of order three in J/U, and the command line caps
    |J| at |U| / 2, so every term then stays finite: no power or product
    of these energies overflows, and none underflows into a division.
    """
    try:
        cube = abs(float(u)) ** 3
    except OverflowError:
        cube = math.inf
    if not sys.float_info.min <= cube < math.inf:
        raise ValueError(f"{channel} must be nonzero and its cube finite and "
                         f"nonzero (a normal float), not {float(u):g}")
    return u


def _square(x):
    # libm pow, bit for bit CPython's float ** 2 (x * x can differ by 1 ULP)
    return np.float_power(x, 2)


def bosonic_couplings(params):
    """Real-tunneling bosonic triangle couplings A_j, B_j, lambda1..4.

    Index convention: link j joins sites j, j+1; B_j collects the two
    links meeting at site j; the lambda4_j pattern sits on sites
    (j, j+1, j+2) with the lone down-species hop on the direct link
    between the outer pair.
    """
    if params.statistics is not Statistics.BOSON:
        raise ValueError("bosonic couplings need bosonic statistics")
    uu = _collision_energy(params.u_upup, "the up-up channel")
    dd = _collision_energy(params.u_dndn, "the down-down channel")
    ud = _collision_energy(params.u_updn, "the cross channel")
    ju, jd = (_require_real(j, "bosonic coupling")
              for j in _triangle_tunnelings(params))
    tu = ju[0] * ju[1] * ju[2]
    td = jd[0] * jd[1] * jd[2]
    su, sd = [_square(j) for j in ju], [_square(j) for j in jd]

    def nxt(seq, j, k):
        return seq[(j + k) % 3]

    A = tuple(
        -tu * (3 / (2 * uu ** 2) + 1 / (2 * ud ** 2) + 1 / (ud * uu))
        - su[j] * (1 / uu + 1 / (2 * ud))
        - td * (3 / (2 * dd ** 2) + 1 / (2 * ud ** 2) + 1 / (ud * dd))
        - sd[j] * (1 / dd + 1 / (2 * ud))
        for j in range(3))
    B = tuple(
        -(su[j] + nxt(su, j, 2)) / uu
        - tu / uu * (1 / ud + 9 / (2 * uu))
        + (sd[j] + nxt(sd, j, 2)) / dd
        + td / dd * (1 / ud + 9 / (2 * dd))
        for j in range(3))
    lam1 = tuple(
        -tu * (9 / (2 * uu ** 2) - 1 / (2 * ud ** 2) - 1 / (ud * uu))
        - su[j] * (1 / uu - 1 / (2 * ud))
        - td * (9 / (2 * dd ** 2) - 1 / (2 * ud ** 2) - 1 / (ud * dd))
        - sd[j] * (1 / dd - 1 / (2 * ud))
        for j in range(3))
    lam2 = tuple(
        -jd[j] * nxt(ju, j, 1) * nxt(ju, j, 2)
        * (3 / (2 * ud ** 2) + 1 / (2 * uu ** 2) + 1 / (ud * uu))
        - ju[j] * jd[j] / (2 * ud)
        - ju[j] * nxt(jd, j, 1) * nxt(jd, j, 2)
        * (3 / (2 * ud ** 2) + 1 / (2 * dd ** 2) + 1 / (ud * dd))
        - jd[j] * ju[j] / (2 * ud)
        for j in range(3))
    lam3 = (-tu / uu * (3 / (2 * uu) - 1 / ud)
            + td / dd * (3 / (2 * dd) - 1 / ud))
    lam4 = tuple(
        -ju[j] * nxt(ju, j, 1) * nxt(jd, j, 2) / uu * (1 / (2 * uu) + 1 / ud)
        + jd[j] * nxt(jd, j, 1) * nxt(ju, j, 2) / dd * (1 / (2 * dd) + 1 / ud)
        for j in range(3))
    return CouplingSet("bosonic", {
        "A": A, "B": B, "lambda1": lam1, "lambda2": lam2,
        "lambda3": lam3, "lambda4": lam4,
    })


def fermionic_couplings(params):
    """Fermionic triangle couplings mu1..mu4 (collision channel U_updn);
    mu3 and mu4 carry the sign that the anticommuting exchange loops
    produce."""
    if params.statistics is not Statistics.FERMION:
        raise ValueError("fermionic couplings need fermionic statistics")
    u = _collision_energy(params.u_updn, "the cross channel")
    ju, jd = (_require_real(j, "fermionic coupling")
              for j in _triangle_tunnelings(params))

    mu1 = tuple(-(_square(ju[j]) + _square(jd[j])) / (2 * u)
                for j in range(3))
    mu2 = tuple(ju[j] * jd[j] / u for j in range(3))
    mu3 = (ju[0] * ju[1] * ju[2] - jd[0] * jd[1] * jd[2]) / (2 * u ** 2)
    mu4 = tuple(
        -3 / (2 * u ** 2)
        * (ju[j] * ju[(j + 1) % 3] * jd[(j + 2) % 3]
           - jd[j] * jd[(j + 1) % 3] * ju[(j + 2) % 3])
        for j in range(3))
    return CouplingSet("fermionic", {
        "mu1": mu1, "mu2": mu2, "mu3": mu3, "mu4": mu4,
    })


def _require_imaginary(js, what):
    if any(np.any(abs(j.real) > 1e-14 * np.maximum(1.0, abs(j))) for j in js):
        raise ValueError(
            f"complex-coupling formulas require purely imaginary J ({what})")


def _uniform(js, what):
    tol = 1e-14 * np.maximum(1.0, abs(js[0]))
    if any(np.any(abs(j - js[0]) > tol) for j in js):
        raise ValueError(f"{what} formulas require link-uniform tunnelings")
    return js[0]


def complex_tunneling_couplings(params):
    """Couplings for purely imaginary, link-uniform tunnelings.

    tau3 multiplies the per-link antisymmetric exchange
    (sigma^x_i sigma^y_{i+1} - sigma^y_i sigma^x_{i+1}); tau4 multiplies
    one mixed product sigma_1.(sigma_2 x sigma_3) per triangle.  All
    outputs are real.  The cross-species channel may carry the inf
    sentinel (its inverse enters as zero).
    """
    fermions = params.statistics is Statistics.FERMION
    ud = params.u_updn
    # only the bosonic cross channel may hold the sentinel
    if fermions or not math.isinf(ud):
        ud = _collision_energy(ud, "the cross channel")
    if not fermions:
        uu = _collision_energy(params.u_upup, "the up-up channel")
        dd = _collision_energy(params.u_dndn, "the down-down channel")
    ju_l, jd_l = _triangle_tunnelings(params)
    _require_imaginary(ju_l + jd_l, "triangle")
    ju = _uniform(ju_l, "complex-coupling")
    jd = _uniform(jd_l, "complex-coupling")
    ju2, jd2 = (ju ** 2).real, (jd ** 2).real     # = -|J|^2
    sym_u = (1j * ju ** 2 * jd).real              # i J_up^2 J_dn
    sym_d = (1j * jd ** 2 * ju).real              # i J_dn^2 J_up
    if fermions:
        return CouplingSet("complex_fermionic", {
            "A": (ju2 + jd2) / (2 * ud),
            "B": 0.0,
            "tau1": -(ju2 + jd2) / (2 * ud),
            "tau2": -(ju * jd).real / ud,
            "tau3": 0.0,
            "tau4": -(3 / (2 * ud ** 2)) * (sym_u + sym_d),
        })
    inv_ud = 0.0 if math.isinf(ud) else 1.0 / ud

    def w_two(y):
        return 3 * inv_ud ** 2 / 2 + 1 / (2 * y ** 2) + inv_ud / y

    def w_three(y):
        return (1 / y) * (1 / (2 * y) + inv_ud)

    return CouplingSet("complex_bosonic", {
        "A": ju2 / uu + jd2 / dd + (ju2 + jd2) * inv_ud / 2,
        "B": 2 * ju2 / uu - 2 * jd2 / dd,
        "tau1": ju2 / uu + jd2 / dd - (ju2 + jd2) * inv_ud / 2,
        "tau2": (ju * jd).real * inv_ud,
        "tau3": -(w_two(uu) * sym_u - w_two(dd) * sym_d),
        "tau4": -(w_three(uu) * sym_u + w_three(dd) * sym_d),
    })


def chirality_point_params(magnitude, scale=1.0):
    """Parameter point isolating the antisymmetric-exchange term: the
    cross channel is excluded, the same-species channels are opposite
    (-scale, +scale) and the two species tunnel with opposite imaginary
    amplitudes of size ``magnitude``."""
    tun = {}
    for link in range(3):
        tun[(link, Species.UP)] = -1j * magnitude
        tun[(link, Species.DOWN)] = 1j * magnitude
    return HubbardParams(Statistics.BOSON, u_upup=-scale, u_dndn=scale,
                         u_updn=math.inf, tunneling=tun)


def rotated_xy_couplings(j, u):
    """Couplings of the x-quantized model produced when only one rotated
    internal state tunnels (rate ``j``) at equal collision energies.

    The string coefficients are B per single-site sigma^x, nu1 per link
    and 3*nu3 on the triple product.
    """
    u = _collision_energy(u, "the collision energy")
    return CouplingSet("rotated_xy", {
        "A": -1.5 * j ** 2 / u - 3 * j ** 3 / u ** 2,
        "B": -2 * j ** 2 / u - 5.5 * j ** 3 / u ** 2,
        "nu1": -0.5 * j ** 2 / u - 3 * j ** 3 / u ** 2,
        "nu3": -j ** 3 / (2 * u ** 2),
    })


# The triangle model of each family as (Pauli pattern, coupling, sign)
# rows.  Each row sits on every link j, the pattern on sites
# (j, j+1, ...) mod 3, with coefficient sign * couplings.link(name, j); a
# scalar coupling takes the same value on every link.  The two rows of
# tau4 place the six Levi-Civita terms of sigma_0.(sigma_1 x sigma_2):
# the cyclic placements of XYZ with +1, of XZY with -1.
_COMPLEX_TERMS = (("I", "A", 1), ("Z", "B", 1), ("ZZ", "tau1", 1),
                  ("XX", "tau2", 1), ("YY", "tau2", 1), ("XY", "tau3", 1),
                  ("YX", "tau3", -1), ("XYZ", "tau4", 1),
                  ("XZY", "tau4", -1))
TRIANGLE_TERMS = {
    "bosonic": (("I", "A", 1), ("Z", "B", 1), ("ZZ", "lambda1", 1),
                ("XX", "lambda2", 1), ("YY", "lambda2", 1),
                ("ZZZ", "lambda3", 1), ("XZX", "lambda4", 1),
                ("YZY", "lambda4", 1)),
    "fermionic": (("I", "mu1", 1), ("ZZ", "mu1", -1), ("XX", "mu2", 1),
                  ("YY", "mu2", 1), ("Z", "mu3", 1), ("ZZZ", "mu3", -1),
                  ("XZX", "mu4", 1), ("YZY", "mu4", 1)),
    "complex_bosonic": _COMPLEX_TERMS,
    "complex_fermionic": _COMPLEX_TERMS,
    "rotated_xy": (("I", "A", 1), ("X", "B", 1), ("XX", "nu1", 1),
                   ("XXX", "nu3", 1)),
}


def triangle_strings(couplings):
    """String -> coefficient map of the triangle model of a coupling
    family: the rows of ``TRIANGLE_TERMS`` placed link by link, each row
    in table order, summed per string in that order; exact-zero
    coefficients are skipped."""
    rows = TRIANGLE_TERMS.get(couplings.family)
    if rows is None:
        raise ValueError(f"unknown coupling family {couplings.family!r}")
    coeffs = {}
    for j in range(3):
        for pattern, name, sign in rows:
            coeff = sign * couplings.link(name, j)
            if coeff != 0.0:
                sites = [(j + k) % 3 for k in range(len(pattern))]
                string = pauli.embed(pattern, sites, 3)
                coeffs[string] = coeffs.get(string, 0.0) + coeff
    return coeffs


def build_spin_hamiltonian(couplings):
    """Dense 8 x 8 matrix of the triangle model of a coupling family."""
    return pauli.pauli_sum(triangle_strings(couplings), 3)


def expected_string_coefficients(couplings):
    """Pauli-string coefficients implied by a coupling set, without the
    strings that cancel exactly."""
    return {s: c for s, c in triangle_strings(couplings).items() if c != 0}
