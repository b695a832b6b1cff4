"""Run the scripted expert in both settings and record an episode.

Executes the grasp-only routine and the navigate-then-grasp routine, prints
their phase timelines, and saves one recorded episode (states, commands,
RGB, disparity) to demos_out/episode_demo/.
"""

from pathlib import Path

from skillsim import World, run_expert
from skillsim.dataset import record, save_episode
from skillsim.scene import make_long_scene, make_short_scene

out_dir = Path(__file__).resolve().parent / "demos_out"
out_dir.mkdir(exist_ok=True)

for variant, make in (("short", make_short_scene), ("long", make_long_scene)):
    config = make(seed=2)
    world = World(config)
    transcript = run_expert(world, variant)
    timeline = " -> ".join(f"{phase.value}@{tick}" for tick, phase in transcript.phases)
    print(f"{variant:5s}: {transcript.outcome} in {len(transcript.ticks)} ticks")
    print(f"       {timeline}")
    if variant == "short":
        episode = record(transcript)
        save_episode(episode, out_dir / "episode_demo")
        mb = sum(f.stat().st_size for f in (out_dir / "episode_demo").iterdir()) / 1e6
        print(f"       recorded {len(episode)} steps "
              f"({mb:.1f} MB) to {out_dir / 'episode_demo'}")
