"""How influence scores respond to degrading a test task.

Take a trained run, reuse one training task as the test task, and attenuate
its features toward zero: either all samples progressively (alpha sweep) or
a growing fraction of samples fully (ratio sweep). The score of the
originally identical training task should fall, and its rank should worsen,
as the resemblance fades.

Run:  python3 demos/04_degradation.py   (~1 minute)
"""

import numpy as np

from metainfluence import (
    Learner,
    MetaParams,
    MetaTrainConfig,
    MlpSpec,
    TaskDistributionSpec,
    exact_meta_hessian,
    invert,
    meta_train,
    run_degradation,
    sample_taskset,
)

spec = MlpSpec((12, 12, 4), "tanh")
tasks = sample_taskset(
    TaskDistributionSpec("clustered", 12, 4, 5, 5, within_class_noise=0.3, seed=101), 32,
    id_prefix="train",
)
learner = Learner("maml", spec, inner_lr=0.01)
mp0 = MetaParams(spec.init_weights(np.random.default_rng(102), 1.0), learner)
mp, _ = meta_train(mp0, tasks, MetaTrainConfig(steps=500, meta_batch=32, lr=1e-3, seed=103))
inv = invert(exact_meta_hessian(mp, tasks), "positive")

grid = [0.0, 0.25, 0.5, 0.75, 1.0]
report = run_degradation(mp, inv, tasks, alphas=grid, ratios=grid, seed=104)

one = report["results"]["alpha"]["per_task"][0]
print(f"example task {one['task_id']}, attenuation sweep {grid}:")
print(f"  self-score: {np.round(one['self_scores'], 4)}")
print(f"  self-rank:  {one['self_ranks']}")

for name, sweep in report["results"].items():
    print(
        f"{name:>6} sweep over 32 tasks: "
        f"corr(value, self-score) = {sweep['score_corr_mean']:.3f} +- {sweep['score_corr_std']:.3f}, "
        f"corr(value, self-rank) = {sweep['rank_corr_mean']:.3f} +- {sweep['rank_corr_std']:.3f} "
        f"({sweep['rank_corr_excluded']} constant-rank tasks excluded)"
    )
