"""The demos run end to end against the installed layer API."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_energy_vote_walkthrough_runs():
    demo = _run_demo("energy_vote_walkthrough.py")
    assert demo.returncode == 0, demo.stderr
    assert "vote agreement with the perfect majority vote:" in demo.stdout
    # each device row shows one lit bin per coordinate pair
    rows = re.findall(r"^  device \d+: (\S+)$", demo.stdout, flags=re.MULTILINE)
    assert len(rows) == 5
    assert all(len(row) == 16 and all(row[k:k + 2].count("X") == 1 for k in range(0, 16, 2)) for row in rows)


def test_train_compare_schemes_runs(tmp_path):
    from airvote.experiment import SCHEMES

    curves = tmp_path / "curves.csv"
    demo = _run_demo("train_compare_schemes.py", "--rounds", "2", "--csv", str(curves))
    assert demo.returncode == 0, demo.stderr
    summaries = [line for line in demo.stdout.splitlines() if " final accuracy " in line]
    assert [line.split()[0] for line in summaries] == list(SCHEMES)
    assert curves.read_text().splitlines()[0] == "round,scheme,accuracy"
