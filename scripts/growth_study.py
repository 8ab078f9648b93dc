#!/usr/bin/env python3
"""Measure how work scales as the quantum eta and the accuracy eps halve.

Two experiments on fixed instances:
  * subroutine calls of the full pipeline as eta halves (expected roughly
    to double: both level searches take about twice as many steps), and
  * packing-loop iterations as eps halves (expected roughly 4x from the
    quadratic dependence on the inverse accuracy).
"""

import argparse

from concurflow.netmodel import Commodity, Edge, Network, PathSystem
from concurflow.packing import pack_paths
from concurflow.solver import solve


def two_lane_system():
    net = Network(
        nodes=("s1", "t1", "s2", "t2"),
        edges=(
            Edge("e1", "s1", "t1", 0.5, True),
            Edge("e2", "s2", "t2", 1.0, True),
        ),
        commodities=(Commodity(1, "s1", "t1", 1.0), Commodity(2, "s2", "t2", 1.0)),
    )
    return PathSystem(net, ((("e1",),), (("e2",),)))


def diamond_system():
    net = Network(
        nodes=("s", "a", "b", "t"),
        edges=(
            Edge("e1", "s", "a", 1.0, True),
            Edge("e2", "s", "b", 0.8, True),
            Edge("e3", "a", "t", 0.9, True),
            Edge("e4", "b", "t", 1.2, True),
            Edge("e5", "a", "b", 0.5, False),
        ),
        commodities=(Commodity(1, "s", "t", 1.0), Commodity(2, "s", "t", 2.0)),
    )
    lanes = (("e1", "e3"), ("e2", "e4"), ("e1", "e5", "e4"))
    alt = (("e2", "e5", "e3"), ("e1", "e3"))
    return PathSystem(net, (lanes, alt))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--eta", type=float, default=0.1, help="largest quantum studied")
    parser.add_argument("--halvings", type=int, default=3)
    args = parser.parse_args()

    system = two_lane_system()
    print("pipeline subroutine calls (two-lane instance, exact subroutine):")
    eta = args.eta
    previous = None
    for _ in range(args.halvings + 1):
        calls = solve(system, eta, subroutine="oracle").subroutine_calls
        growth = "" if previous is None else f"  growth x{calls / previous:.2f}"
        print(f"  eta={eta:<8g} calls={calls}{growth}")
        previous = calls
        eta /= 2

    diamond = diamond_system()
    paths = diamond.grouped
    print("packing iterations (diamond instance):")
    eps = 0.2
    previous = None
    for _ in range(args.halvings + 1):
        iters = pack_paths(paths.capacities, paths, None, eps).iterations
        growth = "" if previous is None else f"  growth x{iters / previous:.2f}"
        print(f"  eps={eps:<8g} iterations={iters}{growth}")
        previous = iters
        eps /= 2


if __name__ == "__main__":
    main()
