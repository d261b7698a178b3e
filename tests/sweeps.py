"""``b`` scattered from the tally of S_n, the route that ``verify`` keeps
as its oracle (``matrices._tally``). Tests compare it with the one public
builder of ``b``, ``block_matrix("b", ...)``, which reads top rows."""

from descon import matrices
from descon.permutations import joint_statistics


def b_swept(n, q=False):
    """Entry (S, T) counts the permutations whose connectivity set contains
    the complement of S and whose descent set is exactly T, weighted by
    q**inv with q, from the tally of all n! permutations."""
    w = matrices._slot_width(n, q)
    return matrices._unpacked(n, matrices._tally(joint_statistics(n), "b", n, w), w)
