"""Roll the trained policy out closed loop on its training scenes.

Loads the models produced by 05_train_policy.py (run that first) and drives
the simulator from the policy's one-step state predictions, reporting
touch/grasp outcomes per scene.
"""

import sys
from pathlib import Path

from skillsim.dataset import load_stats
from skillsim.evaluate import Scenario, evaluate_suite, reports_to_csv
from skillsim.models import PolicyBundle, load_model
from skillsim.scene import make_short_scene

model_dir = Path(__file__).resolve().parent / "demos_out" / "models"
if not model_dir.exists():
    sys.exit("run 05_train_policy.py first")

bundle = PolicyBundle(
    enc_rgb=load_model(model_dir / "autoencoder_rgb.sklm"),
    enc_disp=load_model(model_dir / "autoencoder_disparity.sklm"),
    predictor=load_model(model_dir / "predictor.sklm"),
    stats=load_stats(model_dir / "norm_stats.json"),
)

scenarios = [Scenario(f"scene{seed}", make_short_scene(seed), "short")
             for seed in range(6)]
reports, aggregates = evaluate_suite(bundle, scenarios)
print(reports_to_csv(reports).strip())
print(f"touch rate {aggregates['touch_rate']:.0%}, "
      f"grasp rate {aggregates['grasp_rate']:.0%}, "
      f"mean final tip distance "
      f"{aggregates['mean_final_tip_distance_m'] * 100:.1f} cm")
