"""Orders 2 and 3 of the perturbative engine summed from one partition,
the effective Hamiltonian that most tests compare."""

from trispin.perturb import check_engine, partition, second_order, third_order


def h_eff_up_to_third(h0, v):
    p = check_engine(partition(h0, v))
    return second_order(p) + third_order(p)
