import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# stdout of the survey at these arguments, recorded before the spectral core
# was folded into one routine per job; the script drives random families
# through the 53-bit numeric path
SURVEY_STDOUT = """\
surveyed 4 families (seed 0)

subspace count by dimension (n, r): families
  (2, 1): 2
  (3, 2): 1
  (3, 3): 1

codimension mix: {1: 5, 2: 2}

tree depth by dimension (n, depth): families
  (2, 1): 1
  (2, 2): 1
  (3, 2): 1
  (3, 3): 1
"""


def test_random_family_survey_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "random_family_survey.py"),
         "--families", "4", "--max-dim", "4", "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SURVEY_STDOUT
