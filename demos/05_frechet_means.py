"""Weighted Fréchet means of correlation matrices."""

import numpy as np

from corrgeo import frechet_mean, frechet_variance, gram, orbit_dist, ps_exp, random_orthogonal

rng = np.random.default_rng(55)
m, k = 5, 2

# a cluster of orbits: one template plus small tangent perturbations
T = rng.standard_normal((m, k))
T /= np.linalg.norm(T, axis=1)[:, None]

samples = []
for _ in range(6):
    W = 0.25 * rng.standard_normal((m, k))
    W -= np.einsum("ij,ij->i", T, W)[:, None] * T
    S = ps_exp(T, W)
    samples.append(S @ random_orthogonal(k, rng))  # scramble representatives

report = frechet_mean(samples)
print("converged:", report.converged, "in", report.outer_iterations, "trust-region iterations")
print("loss history:", np.array2string(np.array(report.loss_history), precision=6))

d_template = orbit_dist(report.mean, T)
print("distance mean -> template:", d_template)
print("distances mean -> samples:", [round(orbit_dist(report.mean, s), 4) for s in samples])

# the mean minimizes the weighted sum of squared distances
var_mean = frechet_variance(samples, report.mean)
var_template = frechet_variance(samples, T)
print("variance at the mean    ", var_mean)
print("variance at the template", var_template)

# equal-weight pair: the mean is the midpoint
A, B = samples[0], samples[1]
mid = frechet_mean([A, B]).mean
print()
print("pair midpoint check:",
      round(orbit_dist(mid, A), 6), "=", round(orbit_dist(mid, B), 6),
      "= half of", round(orbit_dist(A, B), 6))

# the mean is itself a correlation matrix
print("mean as a correlation matrix, diagonal:", np.diag(gram(report.mean.rep).entries))
