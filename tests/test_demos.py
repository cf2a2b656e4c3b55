"""The fast demos run end to end and print what they describe.

speedup_demo.py is left out: it runs the multi-second stiffness benchmark.
"""

from pathlib import Path
import runpy

import pytest

_DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script,line", [
    ("matching_demo.py", "macro after matching: [1.2 1.2 1.2]"),
    ("two_beam_demo.py", "Euler heat flux is identically zero: True"),
])
def test_demo_runs(script, line, capsys):
    runpy.run_path(str(_DEMOS / script), run_name="__main__")
    assert line in capsys.readouterr().out.splitlines()
