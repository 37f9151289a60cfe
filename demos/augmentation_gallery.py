"""Every augmentation stage applied to one synthetic image, dumped as PPMs.

Writes the original plus one file per stage (crop, flip, brightness /
saturation / contrast jitter, PCA color noise) and a few full-pipeline
draws into demos/gallery/. Each stage runs through ``augment_batch`` with
only that stage enabled; the fixed-factor jitter files call the blend it
uses, ``jitter_blend``, directly.

Run: python demos/augmentation_gallery.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from branchnet import (AugmentConfig, SyntheticSpec, augment_batch, fit_pca_basis,
                       generate_synthetic, write_ppm)
from branchnet.augment import BRIGHTNESS, CONTRAST, SATURATION, jitter_blend


def main():
    out_dir = Path(__file__).parent / "gallery"
    out_dir.mkdir(exist_ok=True)

    data = generate_synthetic(
        SyntheticSpec(num_classes=6, samples_per_class=4, image_size=48,
                      noise_std=12.0), seed=42)
    image = data.images[5].astype(np.float64)
    write_ppm(out_dir / "original.ppm", image)

    basis = fit_pca_basis(data.images)
    print("fitted color-covariance eigenvalues:", np.round(basis.eigenvalues, 1))
    # pixels, not network inputs: PPM is 8-bit, normalized tensors are not
    config = AugmentConfig(crop_height=36, crop_width=36, flip_probability=0.5,
                           jitter_strength=0.4, pca_sigma=0.1,
                           enable_normalize=False, pca_basis=basis)
    none = replace(config, enable_crop=False, enable_flip=False,
                   enable_jitter=False, enable_pca=False)

    def one(stage_config):
        return augment_batch(image[None], stage_config, 11, 0, [0])[0]

    write_ppm(out_dir / "crop.ppm", one(replace(none, enable_crop=True)))
    write_ppm(out_dir / "flip.ppm", one(replace(none, enable_flip=True, flip_probability=1.0)))
    for name, op, factor in (("brightness", BRIGHTNESS, 1.35),
                             ("saturation", SATURATION, 0.2),
                             ("contrast", CONTRAST, 1.6)):
        blended = jitter_blend(image[None].copy(), [[op]], [[factor]])   # blends in place
        write_ppm(out_dir / f"{name}.ppm", blended[0])
    write_ppm(out_dir / "jitter_all.ppm", one(replace(none, enable_jitter=True)))
    write_ppm(out_dir / "pca_noise.ppm", one(replace(none, enable_pca=True, pca_sigma=0.15)))

    pixels = augment_batch(np.broadcast_to(image, (4,) + image.shape), config,
                           11, 0, np.arange(4))
    for i, row in enumerate(pixels):
        write_ppm(out_dir / f"pipeline_{i}.ppm", row)

    print(f"wrote {len(list(out_dir.glob('*.ppm')))} images to {out_dir}/")


if __name__ == "__main__":
    main()
