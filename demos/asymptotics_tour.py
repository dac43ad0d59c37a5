"""Tour of the coefficient asymptotics.

The generating functions are algebraic with square-root singularities;
the dominant singularity radius and its square-root constant give a
leading term that the exact coefficients approach.  This script prints
the certified radii and shows the ratio converging to 1.
"""

from qmetallic.asymptotics import ratio_table, singularity_report
from qmetallic.dyadic import nstr


def main() -> None:
    print("certified convergence radii (256-bit root isolation):")
    for n in (1, 2, 3, 10, 48):
        rep = singularity_report(n)
        print(f"  n={n:<3} radius {nstr(rep.radius, 20)}   "
              f"dominant roots: {len(rep.dominant)}")
    print()

    rep = singularity_report(1)
    print("n=1 has one dominant (real) singularity; its square-root")
    print(f"constant is {nstr(rep.gammas[0].real, 20)} = -5^(1/4)")
    print()

    print("exact-coefficient / leading-term ratio, drifting to 1:")
    print("  l      n=1                n=2                n=3")
    tabs = {n: dict(ratio_table(n, (100, 500, 1000, 2000))) for n in (1, 2, 3)}
    for l in (100, 500, 1000, 2000):
        print(f"  {l:<6} {tabs[1][l]:<18} {tabs[2][l]:<18} {tabs[3][l]}")


if __name__ == "__main__":
    main()
