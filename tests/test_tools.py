"""Smoke tests of ``tools/ab.py``, the interleaved in-process A/B runner."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"


def ab(parent, change):
    return subprocess.run([sys.executable, str(AB), str(parent), str(change),
                           "--restarts", "1", "--rounds", "2"],
                          capture_output=True, text=True, timeout=300)


def test_checkout_against_itself():
    out = ab(ROOT, ROOT)
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.split()[0] == "operation"
    assert len(rows) == 5 and all(row.endswith("/2") for row in rows)


def test_a_changed_value_fails(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    search = tmp_path / "src" / "privcap" / "search.py"
    search.write_text(search.read_text().replace("SHRINK = 0.5", "SHRINK = 0.6"))
    out = ab(ROOT, tmp_path)
    assert out.returncode == 1
    assert "MISMATCH round 0" in out.stdout
