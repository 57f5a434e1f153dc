"""Walk through the whole pipeline on the 4x6 rectangle with w = 3142:
seed the diagonal, slide the lower region away frame by frame, splice with
the reverse construction, then promote and read the permutation back off.
"""

from taquin import (
    Diagonal,
    Rectangle,
    format_grid,
    forward_tableau,
    from_rows,
    invert,
    minimal_orbit_tableau,
    parse_partition,
    parse_permutation,
    promotion,
    promotion_cycle,
    reverse_tableau,
    right_multiply,
)

w = parse_permutation("3142")
rect = Rectangle(4, 6)
diag = Diagonal(parse_partition("5431"))  # the diagonal given by its outer shape

print("diagonal boxes, bottom-left to top-right:", diag.boxes)
print("region below/left of the diagonal:", diag.lambda_minus)
print()

choice = from_rows([[1, 3, 6, 7], [2, 4, 9], [5, 8]])
final, frames = forward_tableau(w, diag, choice, trace=True)
for k, frame in enumerate(frames):
    print(f"after {k} slides:" if k else "seeded diagonal:")
    print(format_grid(frame))
    print()

print("reverse construction on the complementary region:")
print(format_grid(reverse_tableau(w, diag, rect)))
print()

t = minimal_orbit_tableau(w, rect)
print("spliced standard tableau:")
print(format_grid(t))
print()

# one promotion step subtracts 1 mod n from each diagonal residue
c = promotion_cycle(4)
print("promotion sends it to the tableau of", right_multiply(c, w))
print(format_grid(promotion(t)))
print()
print("reading the permutation back off the diagonal:", invert(t))
