"""Show the space-time Brownian coefficients and their exact refinement.

Each interval of a Brownian path is summarized by three coefficients: the
plain increment W, the centered area H, and the higher coefficient K; H
and K pin down the first two running time integrals.
This demo samples a large batch of unit intervals to exhibit their
variance law, then splits one interval in two and composes it back,
showing that refinement round-trips to floating-point accuracy.
"""

import numpy as np

from ulmc import DyadicBrownianTree, combine, sample_increment

VARS = {"W": 1.0, "H": 1.0 / 12.0, "K": 1.0 / 720.0}


def main():
    rng = np.random.default_rng(7)
    inc = sample_increment(rng, 1.0, 1, shape=(200_000,))
    cols = {"W": inc.w, "H": inc.h, "K": inc.k}

    print("variance of each coefficient on a unit interval (200k samples)")
    print(f"{'coeff':>6} {'sample var':>12} {'exact':>12} {'ratio':>8}")
    for name, col in cols.items():
        v = float(np.var(col))
        print(f"{name:>6} {v:12.6f} {VARS[name]:12.6f} {v / VARS[name]:8.4f}")

    tree = DyadicBrownianTree(seed=11, d=3, horizon=2.0)
    root = tree.root()
    left, right = tree.split(root, 1)
    back = combine(left, right)
    print("\nsplit one interval of length 2.0 and compose the halves back:")
    for name in ("w", "h", "k"):
        gap = float(np.max(np.abs(getattr(back, name) - getattr(root, name))))
        print(f"  {name}: max reconstruction gap {gap:.3e}")

    print("\nthe split is keyed by node index, so replaying it is free:")
    again, _ = tree.split(root, 1)
    print(f"  left W replay identical: {bool(np.array_equal(again.w, left.w))}")


if __name__ == "__main__":
    main()
