"""Smoke tests of ``tools/ab.py``, the interleaved in-process A/B runner."""

import re
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
    assert len(rows) == 7 and all(row.endswith("/2") for row in rows)


def test_a_changed_value_fails(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    search = tmp_path / "src" / "privcap" / "search.py"
    search.write_text(search.read_text().replace("SHRINK = 0.5", "SHRINK = 0.6"))
    out = ab(ROOT, tmp_path)
    assert out.returncode == 1
    assert "MISMATCH round 0" in out.stdout
    # each mismatch gives the signed change of the value
    assert re.search(r"change - parent = [+-]\d\.\d{3}e[+-]\d+ \(", out.stdout), out.stdout


def test_a_changed_closed_form_names_its_field(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    regions = tmp_path / "src" / "privcap" / "regions.py"
    source = regions.read_text()
    assert "0.5 + 0.5 * np.sqrt(" in source
    regions.write_text(source.replace("0.5 + 0.5 * np.sqrt(", "0.5 + 0.4999 * np.sqrt("))
    out = ab(ROOT, tmp_path)
    assert out.returncode == 1
    # the first differing float of each closed-form output, with its signed change
    assert re.search(r"MISMATCH round 0 sample_boundary grid 101: \[dephasing\]\[0\]\.b_ps: "
                     r"change - parent = [+-]\d\.\d{3}e[+-]\d+ \(", out.stdout), out.stdout
    assert "MISMATCH round 0 pareto_point AC2 pairs: [dephasing (0.0, 0.0)]" in out.stdout
