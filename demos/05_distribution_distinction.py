"""Telling apart training-task distributions through influence scores.

Training mixes real (clustered) tasks with noise-label tasks. For each test
task we compare the mean score of regular vs noise training entities: the
pair is "in proper order" when the regular mean is higher. The direction of
the majority tracks the training regime:

* an overfit run (very few regular tasks, no regularization) memorizes, and
  most regular tasks stop being helpful for fresh tests;
* a generalized run (more tasks, feature-rotation augmentation groups,
  weight decay) encodes the task distribution, and regular tasks win almost
  every test.

Tasks here draw their classes from a shared center pool with per-task label
bindings, the way few-shot episodes recycle categories under fresh class
indices.

Run:  python3 demos/05_distribution_distinction.py   (~2 minutes)
"""

import numpy as np

from metainfluence import (
    Learner,
    MetaParams,
    MetaTrainConfig,
    MlpSpec,
    TaskDistributionSpec,
    accumulate_gn,
    invert,
    meta_train,
    mix_tasksets,
    run_distribution_distinction,
    sample_taskset,
    score_table,
)
from metainfluence.metalearn import task_logits
from metainfluence.taskgen import augment_group

POOL = dict(center_pool_size=8, pool_seed=99)
spec = MlpSpec((16, 16, 4), "tanh")
tests = sample_taskset(
    TaskDistributionSpec("clustered", 16, 4, 5, 5, within_class_noise=0.4, seed=305, **POOL),
    32,
    id_prefix="test",
)


def build_and_score(label, n_regular, n_noise, aug_count, weight_decay, steps):
    regular = sample_taskset(
        TaskDistributionSpec("clustered", 16, 4, 5, 5, within_class_noise=0.4, seed=301, **POOL),
        n_regular,
        id_prefix="train",
    )
    noise = sample_taskset(
        TaskDistributionSpec("noise", 16, 4, 5, 5, seed=302), n_noise, id_prefix="noise"
    )
    tasks = []
    for t in mix_tasksets(regular, noise, seed=303):
        tasks.extend(augment_group(t, aug_count, 1.0, seed=304))

    learner = Learner("maml", spec, inner_lr=0.05)
    mp0 = MetaParams(spec.init_weights(np.random.default_rng(306), 1.0), learner)
    mp, log = meta_train(
        mp0,
        tasks,
        MetaTrainConfig(steps=steps, meta_batch=32, lr=1e-3, seed=307, weight_decay=weight_decay),
    )
    inv = invert(accumulate_gn(mp, tasks, capacity=256), "all")
    report = run_distribution_distinction(score_table(mp, inv, tasks, tests), tasks)
    hits = [np.mean(task_logits(mp, t).argmax(axis=1) == t.query.y) for t in tests]
    test_acc = float(np.mean(hits))
    c = report["results"]["counts"]
    print(
        f"{label}: train acc {log.final_accuracy:.2f}, test acc {test_acc:.2f} | "
        f"proper order {c['proper_order_mean']}/{c['tests']} tests "
        f"(two-sided binomial p = {report['results']['p_value_mean']:.2e})"
    )
    return report


print(f"shared class pool of 8 centers; {len(tests)} fresh test tasks\n")
build_and_score("overfit     (6 regular + 48 noise, no decay)      ", 6, 48, 1, 0.0, 3000)
build_and_score("generalized (42 regular x4 augmented + 32 noise)  ", 42, 32, 4, 1e-3, 2000)
