"""Train an LSTM forecaster with the stochastic activation end to end.

Builds a synthetic price series (noisy sine on a drifting trend),
normalizes it to [0, 1], slices sliding windows, trains with Adam and
early stopping, and reports test MSE / R-squared on the chronological
holdout.  Writes history.csv and model.json under demos/output/forecast/.
"""

import os

from brownian_lstm import (ActivationKind, RngStream, TrainConfig,
                           chronological_split, denormalize, evaluate,
                           init_params, load_checkpoint, make_windows,
                           metrics, minmax_normalize, save_checkpoint,
                           synth_sine_trend, train)

OUT_DIR = os.path.join(os.path.dirname(__file__), "output", "forecast")
LOOKBACK = 30


def main():
    series = synth_sine_trend(seed=7, n=600)
    print(f"series {series.name}: {series.values.size} points, "
          f"first={series.values[0]:.2f} last={series.values[-1]:.2f}")

    normalized, vmin, vmax = minmax_normalize(series.values)
    windows = make_windows(normalized, LOOKBACK, norm_min=vmin,
                           norm_max=vmax)
    train_ds, test_ds = chronological_split(windows, 0.8)
    # Validation = the most recent tail of the training span, so early
    # stopping never peeks at the test period.
    n_val = max(1, len(train_ds) // 10)
    tr_in, tr_tg = train_ds.inputs[:-n_val], train_ds.targets[:-n_val]
    va_in, va_tg = train_ds.inputs[-n_val:], train_ds.targets[-n_val:]
    print(f"windows: {len(train_ds) - n_val} train / {n_val} val / "
          f"{len(test_ds)} test (lookback {LOOKBACK})")

    kind = ActivationKind.brownian(m=500)
    config = TrainConfig(max_epochs=30, batch_size=32, seed=1)
    params = init_params(1, 32, 1, seed=1)
    best, history = train(params, kind, tr_in, tr_tg, va_in, va_tg, config)
    print(f"trained {history.executed_epochs} epochs, best validation "
          f"loss at epoch {history.epoch_of_convergence}, "
          f"learned alpha={best.alpha:.4f}")

    test_rng = RngStream(1, 31)
    test_mse, preds = evaluate(best, kind, test_ds.inputs, test_ds.targets,
                               config, test_rng)
    r2_test = metrics.r2(preds, test_ds.targets)
    print(f"test MSE={test_mse:.6f} R2={r2_test:.4f}")

    # Predictions live on the normalized scale; map a few back to prices.
    prices = denormalize(preds[:3], test_ds.norm_min, test_ds.norm_max)
    actual = denormalize(test_ds.targets[:3], test_ds.norm_min,
                         test_ds.norm_max)
    for k, (p, a) in enumerate(zip(prices, actual)):
        print(f"  t+{k + 1}: predicted {p:8.3f}  actual {a:8.3f}")

    os.makedirs(OUT_DIR, exist_ok=True)
    history_path = os.path.join(OUT_DIR, "history.csv")
    model_path = os.path.join(OUT_DIR, "model.json")
    history.to_csv(history_path)
    save_checkpoint(model_path, best, kind)
    reloaded, _ = load_checkpoint(model_path)
    assert reloaded.alpha == best.alpha
    for key, value in best.arrays().items():
        assert reloaded.arrays()[key].tobytes() == value.tobytes(), key
    print(f"wrote {history_path}")
    print(f"wrote {model_path} (round-trips bit for bit)")


if __name__ == "__main__":
    main()
