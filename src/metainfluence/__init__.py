"""Task-level influence functions for meta-learned few-shot classifiers.

The library quantifies how much each meta-training task (or task group)
shaped a trained meta-learner: its meta-parameters and a test task's loss.
No library code computes influence on the weights adapted to a test task;
only the tests' ``adaptation_jacobian`` does (an open item in ROADMAP.md).
Curvature is exact (finite differences of the exact meta-gradient) or the
positive-semidefinite outer-product term of the cross-entropy decomposition,
compressed into a bounded orthogonal column buffer. Pseudo-inverse pruning
projects out flat curvature directions.
"""

from .hessian import (
    HessianRep,
    SpectralInverse,
    accumulate_gn,
    exact_meta_hessian,
    gn_columns_for_task,
    invert,
    load_hessian,
    save_hessian,
    spectrum_summary,
)
from .influence import (
    HELPFUL_POSITIVE,
    InfluenceRecord,
    ScoreTable,
    influence_meta,
    influence_records,
    load_influence_records,
    load_score_table,
    save_influence_records,
    save_score_table,
    score_table,
)
from .linalg import (
    EigenDecomposition,
    FactorMatrix,
    eigh_symmetric,
    orthogonalize_keep_largest,
    psd_sqrt_small,
    symmetrize,
)
from .metalearn import (
    Learner,
    MetaParams,
    MetaTrainConfig,
    Task,
    TrainLog,
    adapt,
    load_params,
    meta_grad,
    meta_grads,
    meta_train,
    save_params,
    total_meta_gradient_norm,
)
from .model import Batch, MlpSpec, forward, grad, hvp, output_jacobian
from .taskgen import (
    DegradeParams,
    TaskDistributionSpec,
    augment_group,
    degrade_task,
    load_taskset,
    mix_tasksets,
    sample_taskset,
    save_taskset,
)
from .experiments import (
    binomial_two_sided_p,
    pearson,
    run_degradation,
    run_distribution_distinction,
    run_exact_vs_gn,
    run_self_rank,
)

__version__ = "0.1.0"
