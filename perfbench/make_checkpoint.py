"""Write the closed_loop workload's policy checkpoint and vocabulary.

    python3 perfbench/make_checkpoint.py

Run it from the repository root. It pretrains the policy on the FULL-scale
setup demos of workloads.CHECKPOINT_SEED and writes perfbench/checkpoint/
policy.ckpt and vocab.jsonl. Both are committed, so that closed_loop drives
the same weights at every commit; rerun this only when the checkpoint format
changes, and remeasure the baseline afterwards.
"""

import os
import sys

import run

run.import_program()

from drivelab import training as tr  # noqa: E402
from drivelab.policy import Policy  # noqa: E402

import workloads as wl  # noqa: E402


def main():
    demo, _, vocab = wl._setup_demos(wl.CHECKPOINT_SEED, wl.FULL)
    policy = Policy(wl.CHECKPOINT_POLICY, vocab, wl.CONTROL)
    tr.pretrain(policy, demo, tr.TrainConfig(pretrain_epochs=wl.FULL.pretrain_epochs,
                                             batch_size=16, seed=wl.CHECKPOINT_SEED))
    os.makedirs(wl.CHECKPOINT_DIR, exist_ok=True)
    policy.traj_vocab.save(wl.CHECKPOINT_VOCAB)
    policy.save(wl.CHECKPOINT)
    print(f"wrote {wl.CHECKPOINT} (vocabulary {policy.traj_vocab.hash()})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
