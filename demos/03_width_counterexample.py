"""The distance depends on the factor width k, strictly.

Widening the factor (adding zero columns) can only shrink the orbit
distance, because O(k) embeds in O(k+1). This script shows a four-variable
instance where the shrink is strict: two rank-2 correlation matrices whose
k=2 distance exceeds pi/sqrt(2) while their k=3 distance equals it.
"""

import numpy as np

from corrgeo import k_embedding, orbit_dist, ps_dist

X = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
Y = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])

bound = np.pi / np.sqrt(2.0)

d2 = orbit_dist(X, Y)
# dense scan over all of O(2), rotations and reflections: an independent check
phi = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
rotations = [np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]) for a in phi]
reflect = np.diag([1.0, -1.0])
d2_grid = min(ps_dist(X @ R @ F, Y) for R in rotations for F in (np.eye(2), reflect))
d3 = orbit_dist(k_embedding(X, 3), k_embedding(Y, 3))

print("width k = 2")
print("  solver   ", d2)
print("  O(2) grid", d2_grid)
print("  exact    ", np.sqrt(3.0) * np.pi / 2.0)
print()
print("width k = 3 (same matrices, zero-padded)")
print("  solver   ", d3)
print("  exact    ", bound, "= pi/sqrt(2)")
print()
print("margin of the k = 2 distance over pi/sqrt(2):", d2 - bound)

# the k=3 minimizer tips the planar configuration into the third dimension,
# something no planar rotation can imitate
assert d2 > bound > 0.99 * d3
