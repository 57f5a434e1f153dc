"""Cyclic sieving at desk scale: decompose the standard tableaux of small
rectangles into promotion orbits and match the fixed-point counts against
the q-analogue of the hook length formula at roots of unity.
"""

from math import factorial

from taquin import Rectangle, orbit_table, q_hook_at_root, q_hook_polynomial
from taquin.sieving import divisors

for n, m in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]:
    rect = Rectangle(n, m)
    table = orbit_table(rect)
    sizes = sorted(table.sizes)
    print(f"{n}x{m}: {table.total} tableaux, orbit sizes {sizes}")
    for r in divisors(n * m):
        fixed = table.counts[r]
        value = q_hook_at_root(rect, r)
        mark = "ok" if fixed == value else "MISMATCH"
        print(f"    r={r:2d}  fixed={fixed:6d}  F(zeta^r)={value:6d}  {mark}")
    assert table.counts[n] == factorial(n), "minimal orbits biject with permutations"
    print(f"    minimal orbits hold {table.counts[n]} = {n}! tableaux")
    print()

poly = q_hook_polynomial(Rectangle(3, 4))
print("q-hook polynomial of the 3x4 rectangle has degree", poly.degree)
print("coefficients:", poly.coeffs)
print("value at 1:", poly(1))
