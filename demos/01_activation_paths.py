"""Sample the stochastic activation and check its advertised behavior.

Draws input-output curves over a grid for several (alpha, M) pairs,
verifies the alpha = 0 reduction to ReLU, and measures how the noise
variance on the negative branch shrinks as the sample count M grows.
Writes paths.csv and paths.svg under demos/output/paths/.
"""

import math
import os

import numpy as np

from brownian_lstm import ActivationKind, RngStream, emit_paths_figure, forward

OUT_DIR = os.path.join(os.path.dirname(__file__), "output", "paths")


def main():
    # 1. alpha = 0 collapses the stochastic branch: bitwise ReLU.
    rng = RngStream(7)
    x = rng.uniform(-10.0, 10.0, 1000)
    relu_y, _ = forward(ActivationKind("relu"), x)
    brownian_y, _ = forward(ActivationKind.brownian(m=500), x, alpha=0.0,
                            rng=RngStream(8))
    assert brownian_y.tobytes() == relu_y.tobytes()
    print("alpha=0 reproduces ReLU bitwise on 1000 random inputs")

    # 2. On the negative branch the output is -alpha * b with
    #    b ~ N(0, |x|/M): the mean is 0 and the variance is |x|/M.
    print("\nempirical variance at x = -1, alpha = 1 (theory: 1/M)")
    n_draws = 200_000
    grid = np.full(n_draws, -1.0)
    for m in (1, 10, 100, 1000):
        y, _ = forward(ActivationKind.brownian(m=m), grid, alpha=1.0,
                       rng=RngStream(100 + m))
        print(f"  M={m:<5d} variance={y.var(ddof=1):.6f} "
              f"(1/M = {1.0 / m:.6f})")

    # 3. Curves over an input grid, one per (alpha, M): the positive
    #    half is the identity, the negative half is scaled noise whose
    #    spread grows with alpha and shrinks with sqrt(M).
    csv_path, svg_path = emit_paths_figure(
        alphas=(0.0, 0.5, 1.0), m_values=(200, 1500), x_min=-5.0,
        x_max=5.0, seed=7, out_dir=OUT_DIR)
    print(f"\nwrote {csv_path}")
    print(f"wrote {svg_path}")


if __name__ == "__main__":
    main()
