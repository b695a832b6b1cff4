"""Train the imitation policy on a handful of expert demonstrations.

Collects six grasp-only episodes, trains both image autoencoders and the
recurrent one-step predictor at a reduced budget, and saves the models to
demos_out/models/. Takes a couple of minutes on a laptop CPU.
"""

import time
from pathlib import Path

from skillsim import World, run_expert
from skillsim.dataset import compute_norm_stats, record, save_stats
from skillsim.models import save_model
from skillsim.scene import make_short_scene
from skillsim.training import TrainConfig, train_autoencoder, train_predictor, write_loss_csv

out_dir = Path(__file__).resolve().parent / "demos_out" / "models"
out_dir.mkdir(parents=True, exist_ok=True)

episodes = []
for seed in range(6):
    config = make_short_scene(seed)
    transcript = run_expert(World(config), "short")
    episodes.append(record(transcript))
    print(f"episode {seed}: {transcript.outcome}, {len(episodes[-1])} steps")

stats = compute_norm_stats(episodes)
config = TrainConfig(epochs=400, ae_epochs=60, seed=0)

t0 = time.time()
enc_rgb, rgb_losses = train_autoencoder(episodes, "rgb", stats, config)
enc_disp, disp_losses = train_autoencoder(episodes, "disparity", stats, config)
print(f"autoencoders: rgb loss {rgb_losses[0]:.3f} -> {rgb_losses[-1]:.3f}, "
      f"disparity {disp_losses[0]:.3f} -> {disp_losses[-1]:.3f} "
      f"({time.time() - t0:.0f} s)")

t0 = time.time()
predictor, pred_losses = train_predictor(episodes, enc_rgb, enc_disp, stats, config)
print(f"predictor: loss {pred_losses[0]:.4f} -> {pred_losses[-1]:.6f} "
      f"over {config.epochs} epochs ({time.time() - t0:.0f} s)")

save_model(out_dir / "autoencoder_rgb.sklm", enc_rgb)
save_model(out_dir / "autoencoder_disparity.sklm", enc_disp)
save_model(out_dir / "predictor.sklm", predictor)
save_stats(out_dir / "norm_stats.json", stats)
write_loss_csv(out_dir / "loss_predictor.csv", pred_losses)
print(f"saved models and stats to {out_dir}")
