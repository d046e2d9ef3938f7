"""tools/parent_diff.py on a small slice of its jobs, with the working
tree on both sides: two hash seeds, the same results."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parent_diff.py"


def test_parent_diff_self_diff_has_no_mismatch():
    res = subprocess.run([sys.executable, str(TOOL), "--small"],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    counts = dict(re.findall(r"^(\w+): (\d+) lines on the old side, \2 on "
                             r"the new, 0 mismatches$", res.stdout, re.M))
    assert counts.keys() == {"runs", "two_way", "long", "compile"}, \
        res.stdout
    assert all(int(n) > 100 for n in counts.values()), counts
