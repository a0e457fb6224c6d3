# %% [markdown]
# # The rotation posterior and its first moment
#
# Observing y = R x + noise at level sigma induces a matrix Fisher
# posterior over the rotation R with concentration y^T x / sigma^2, so
# the pair (y^T x, sigma) is all there is to the posterior.  The ideal
# denoiser target is E[R] applied to x.  Two independent routes compute
# E[R] here:
#
# 1. a 1-D Bessel-function integral in the SVD frame (the ground truth), and
# 2. the closed-form expansion around the alignment rotation, whose
#    order-0 truncation *is* Kabsch alignment.
#
# The table at the end shows the expansion error collapsing at the rates
# sigma^2 / sigma^4 / sigma^6 as noise shrinks.

# %%
import numpy as np

from so3denoise import (
    center,
    kabsch,
    mf_mean_laplace,
    mf_mean_quadrature,
    proper_svd,
    rotate,
    sample_haar,
)

rng = np.random.default_rng(1)
x = center(rng.standard_normal((8, 3)))
sigma = 0.2
y = center(rotate(sample_haar(rng), x) + sigma * rng.standard_normal(x.shape))

concentration = y.T @ x / sigma**2
print("concentration spectrum:", proper_svd(concentration).s)

# %% [markdown]
# ## Mode = alignment
#
# The density maximizer of the posterior is the Kabsch rotation, and it
# is the order-0 term of the expansion below: both are u v^T from the
# same proper SVD of y^T x, so they agree bit for bit.

# %%
mode = mf_mean_laplace(y.T @ x, sigma, 0)
print("mode vs kabsch:", np.max(np.abs(mode - kabsch(y, x).rotation)))

# %% [markdown]
# ## Exact moment vs its expansion
#
# The posterior mean is *not* a rotation: its singular values shrink
# below 1, pulling the denoiser target toward the origin.  The expansion
# reproduces that shrinkage through diagonal corrections in the SVD
# basis of y^T x.

# %%
exact = mf_mean_quadrature(concentration, tol=1e-8)
print("singular values of E[R]:", np.linalg.svd(exact, compute_uv=False))
for order in (0, 1, 2):
    approx = mf_mean_laplace(y.T @ x, sigma, order)
    print(f"order {order}: max entry error {np.max(np.abs(approx - exact)):.3e}")

# %% [markdown]
# ## Error decay as the noise vanishes

# %%
a = y.T @ x
a /= proper_svd(a).s[0]
print(f"{'sigma':>8} {'order 0':>12} {'order 1':>12} {'order 2':>12}")
for s in (0.05, 0.08, 0.12, 0.2, 0.3):
    ref = mf_mean_quadrature(a / s**2, tol=1e-8)
    row = [np.max(np.abs(mf_mean_laplace(a, s, k) - ref)) for k in (0, 1, 2)]
    print(f"{s:8.2f} {row[0]:12.3e} {row[1]:12.3e} {row[2]:12.3e}")
