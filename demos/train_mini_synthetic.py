"""Train a small two-branch net on synthetic data and ensemble the branches.

A few epochs on the rectangles dataset are enough to see both branches
learn and the averaged-probability ensemble match or beat the individual
branches. Takes a couple of minutes on a laptop CPU.

Run: python demos/train_mini_synthetic.py
"""

import numpy as np

from branchnet import (AugmentConfig, SyntheticSpec, TrainConfig,
                       build_branched_net, evaluate, fit_augment_statistics,
                       generate_synthetic, mini_config, train)


def main():
    train_set = generate_synthetic(
        SyntheticSpec(num_classes=10, samples_per_class=20, image_size=28,
                      noise_std=60.0), seed=100, split="train")
    test_set = generate_synthetic(
        SyntheticSpec(num_classes=10, samples_per_class=10, image_size=28,
                      noise_std=60.0), seed=200, split="test")

    # channel means for normalization come from the training images
    augment = fit_augment_statistics(
        AugmentConfig(crop_height=24, crop_width=24, flip_probability=0.5,
                      enable_jitter=False, enable_pca=False),
        train_set.images)

    config = TrainConfig(batch_size=32, total_epochs=8, base_lr=0.05,
                         weight_decay=1e-4, momentum=0.9,
                         smoothing_epsilon=0.1, seed=3, num_classes=10)
    net = build_branched_net(mini_config(input_size=24), seed=config.seed,
                             dtype=np.float32)

    print(f"training {config.total_epochs} epochs on {len(train_set)} samples...")
    _, history = train(net, train_set, config, augment, log=print)

    report = evaluate(net, test_set, augment_config=augment)
    print()
    print(report.render_text())


if __name__ == "__main__":
    main()
