"""Box sequences: drive reverse slides from the diagonal with an infinite
letter sequence, rebuild the forward construction from the terminals, and
compare the displacement counts with their descent closed form.
"""

from taquin import (
    Diagonal,
    Rectangle,
    box_sequence,
    column_sequence,
    delta_closed_form,
    descent_sequence,
    descents,
    format_grid,
    forward_tableau,
    inverse_word_sequence,
    parse_partition,
    parse_permutation,
    staircase_diagonal,
    tableau_from_box_sequence,
)

w = parse_permutation("3142")
diag = Diagonal(parse_partition("5431"))  # the diagonal given by its outer shape

run = box_sequence(inverse_word_sequence(w), diag)
print("driving sequence (repeated inverse word):", run.sigma_prefix[:12], "...")
print("first twelve terminals:", run.boxes[:12])
print("displacement counts:", run.delta)
print()

rebuilt = tableau_from_box_sequence(run, diag)
print("entry of each box = first step it appears as a terminal:")
print(format_grid(rebuilt))
assert rebuilt == forward_tableau(w, diag)
print("matches the slide construction entrywise")
print()

# the closed forms need n = number of columns, so work in a 6x4 rectangle
rect = Rectangle(4, 6, n_is_rows=False)
diag_cols = staircase_diagonal(rect)
run = box_sequence(descent_sequence(w), diag_cols)
cols = column_sequence(sorted(descents(w), reverse=True), 4, len(run.boxes))
print("descent-driven terminals land in columns", cols[:10], "...")
assert tuple(b.col for b in run.boxes) == cols
print("displacement counts from the run:   ", run.delta)
print("displacement counts in closed form: ", delta_closed_form(w, diag_cols.lambda_plus))
