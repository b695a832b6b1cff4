"""The simulator, perception, planning and expert demos run to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_world_and_camera.py", "02_perception_pipeline.py",
         "03_planning_and_kinematics.py", "04_expert_demonstrations.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(tmp_path, name):
    # demos write demos_out/ beside themselves, so each runs from a copy
    script = shutil.copy(ROOT / "demos" / name, tmp_path / name)
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, script], cwd=tmp_path, capture_output=True,
                            text=True, timeout=300, env={**os.environ, "PYTHONPATH": pythonpath})
    assert result.returncode == 0, result.stderr
