import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_vector_demo_writes_its_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["vector_demo.py", "--out", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "vector_demo.py"), run_name="__main__")
    for name in ("truth.csv", "filter.csv", "ensemble_snapshot.csv", "constants.txt"):
        assert (tmp_path / name).stat().st_size > 0, name
