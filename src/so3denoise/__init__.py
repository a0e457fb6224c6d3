"""Exact and approximate rotation-posterior denoiser targets for point clouds.

Library layout:

* :mod:`so3denoise.geom` -- point-cloud and SO(3) primitives.
* :mod:`so3denoise.align` -- Kabsch alignment and RMSD metrics.
* :mod:`so3denoise.fisher` -- the closed-form moment expansion of the
  matrix Fisher rotation posterior.
* :mod:`so3denoise.quadrature` -- deterministic integration over SO(3);
  the numerical ground truth.
* :mod:`so3denoise.estimators` -- the denoiser-target estimator family
  and the noise-level error sweep.
* :mod:`so3denoise.diffusion` -- toy MLP denoiser training and DDIM
  sampling.
* :mod:`so3denoise.trajectory` -- XYZ files and synthetic data.
"""

from .align import AlignmentError, KabschResult, aligned_rmsd, kabsch, rmsd
from .diffusion import (
    DdimSchedule,
    MlpDenoiser,
    StepMetrics,
    TrainConfig,
    TrainResult,
    ddim_sample,
    load_denoiser,
    loss_and_grad,
    mlp_forward,
    noise_sample,
    save_denoiser,
    train,
    write_metrics_csv,
)
from .estimators import (
    BatchTargets,
    DegenerateAlignmentWarning,
    EstimatorKind,
    SweepRecord,
    error_sweep,
    estimator_target,
    sweep_aug_anomalies,
    write_sweep_csv,
)
from .fisher import (
    ExpansionSingularError,
    LaplaceMean,
    c1,
    c2,
    mf_mean_laplace,
)
from .geom import (
    ProperSvd,
    center,
    frobenius_norm_sq,
    proper_svd,
    rotate,
    sample_haar,
)
from .quadrature import (
    NoConvergenceError,
    OracleMean,
    mf_mean_quadrature,
    oracle_conditional_denoiser,
)
from .trajectory import (
    Trajectory,
    TrajectoryFormatError,
    load_trajectory,
    save_trajectory,
    synth_trajectory,
)

__version__ = "0.1.0"
