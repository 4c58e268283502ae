"""The Duistermaat-Heckman check of a circle graph, on `S1Graph` alone.

The DH function rho(t) is the area of the reduced space at moment level t
(Duistermaat-Heckman, Invent. Math. 1982; Karshon, Periodic Hamiltonian
flows on four-dimensional manifolds, Mem. AMS 1999, sections 2-3).  It is
continuous and piecewise linear on [min, max]:

- an isolated minimum of weights (m, n) starts it at 0 with slope 1/(mn);
  a fixed surface at the minimum starts it at the surface's area with an
  integer slope, which the volume fixes;
- each interior point of weights (m, n) adds 1/(mn) to the slope;
- an isolated maximum of weights (m, n) ends it at 0 with slope -1/(mn);
  a fixed surface at the maximum ends it at its area with an integer slope;
- rho > 0 on the open interval, and its integral is the volume.

The Euler characteristic, #points + sum(2 - 2g) over the surfaces, is
3 + k on a k-fold blow-up of cp2 and 4 - 4g + k on one of a genus-g ruled
surface.  `validate` checks none of this: it reads local axioms only.
"""

from fractions import Fraction as Q


def dh_problems(graph, volume, euler) -> list[str]:
    """What the graph's DH function and Euler characteristic get wrong."""
    lo, hi = graph.min_moment, graph.max_moment
    (bottom,) = [v for v in graph.vertices if v.moment == lo]
    (top,) = [v for v in graph.vertices if v.moment == hi]
    jumps: dict = {}
    for v in graph.vertices:
        if v.weights is not None and lo < v.moment < hi:
            jumps[v.moment] = jumps.get(v.moment, 0) + Q(1, v.weights[0] * v.weights[1])
    levels = [lo, *sorted(jumps), hi]
    # rho on the levels with start slope s0, then the same rho with s0 + s
    # adds s (t - lo), whose integral is s (hi - lo)^2 / 2.
    s0 = 0 if bottom.is_surface else Q(1, bottom.weights[0] * bottom.weights[1])
    rho, slope, integral = [bottom.area if bottom.is_surface else 0], s0, Q(0)
    for a, b in zip(levels, levels[1:]):
        rho.append(rho[-1] + slope * (b - a))
        integral += Q((rho[-2] + rho[-1]) * (b - a), 2)
        slope += jumps.get(b, 0)
    problems = []
    if bottom.is_surface:
        s = (volume - integral) * 2 / (hi - lo) ** 2
        if s.denominator != 1:
            problems.append(f"start slope {s} of the surface minimum is not an integer")
        rho = [r + s * (t - lo) for r, t in zip(rho, levels)]
        slope += s
    elif integral != volume:
        problems.append(f"integral {integral} is not the volume {volume}")
    if top.is_surface:
        if rho[-1] != top.area or Q(slope).denominator != 1:
            problems.append(f"ends at {rho[-1]} with slope {slope}, not at area {top.area}")
    elif rho[-1] != 0 or slope != -Q(1, top.weights[0] * top.weights[1]):
        problems.append(f"ends at {rho[-1]} with slope {slope}, not at 0 as {top.weights}")
    if any(r <= 0 for r in rho[1:-1]) or (not jumps and max(rho[0], rho[-1]) <= 0):
        problems.append(f"not positive inside: {rho}")
    chi = sum(2 - 2 * v.genus if v.is_surface else 1 for v in graph.vertices)
    if chi != euler:
        problems.append(f"Euler characteristic {chi}, not {euler}")
    return problems
