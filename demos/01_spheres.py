"""Row geometry basics: spheres, products of spheres, and their maps."""

import numpy as np

from corrgeo import ps_dist, ps_exp, ps_log

rng = np.random.default_rng(7)

# single sphere: a 1 x k matrix is a product of one sphere ------------------

x = rng.standard_normal(3)
x /= np.linalg.norm(x)
y = rng.standard_normal(3)
y /= np.linalg.norm(y)

print("two random points on S^2")
print("  angle between them     ", ps_dist(x[None], y[None]))
print("  arccos of inner product", np.arccos(np.clip(x @ y, -1, 1)))

# the robust angle is exact where arccos loses digits
near = x + 1e-9 * (y - (x @ y) * x)
near /= np.linalg.norm(near)
print("  tiny angle, robust     ", ps_dist(x[None], near[None]))
print("  tiny angle, arccos     ", np.arccos(np.clip(x @ near, -1, 1)))

# exp and log invert each other
v = ps_log(x[None], y[None])
print("  |log| equals distance  ", v.norm, "=", ps_dist(x[None], y[None]))
print("  exp(log) lands on y    ", np.linalg.norm(ps_exp(x[None], v) - y))

# product of spheres ---------------------------------------------------------

m, k = 5, 3
X = rng.standard_normal((m, k))
X /= np.linalg.norm(X, axis=1)[:, None]
Y = rng.standard_normal((m, k))
Y /= np.linalg.norm(Y, axis=1)[:, None]

print()
print(f"product of {m} spheres S^{k - 1}")
d = ps_dist(X, Y)
rowwise = np.array([ps_dist(X[i][None], Y[i][None]) for i in range(m)])
print("  product distance        ", d)
print("  norm of rowwise angles  ", np.linalg.norm(rowwise))

V = ps_log(X, Y)
Z = ps_exp(X, V.vec)
print("  exp(log) row error      ", np.abs(Z - Y).max())

# rows move independently: zeroing one row's velocity freezes that row only
W = V.vec.copy()
W[0] = 0.0
Z = ps_exp(X, W)
print("  frozen row 0 stays put  ", np.abs(Z[0] - X[0]).max())
print("  other rows still arrive ", np.abs(Z[1:] - Y[1:]).max())
