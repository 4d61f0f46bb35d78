"""Core framework: images, tiling, kernels, configuration, engine."""
