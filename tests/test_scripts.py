"""Smoke runs of the experiment scripts in scripts/ with tiny arguments, so
an API change that breaks one of them fails here rather than silently."""

import importlib.util
import json
from pathlib import Path

from dualvc.harness import read_records

ROOT = Path(__file__).resolve().parents[1]
FROZEN = ROOT / "tests" / "data" / "contrast_config.json"


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_contrast_smoke(capsys):
    script = load_script("run_contrast")
    assert script.main(["--trials", "2", "--sizes", "4", "5", "6"]) == 0
    out = capsys.readouterr().out
    assert "m=6 w_max=2^6" in out
    assert "ea_fifth at m=6" in out


def test_calibrate_contrast_smoke(tmp_path, capsys):
    frozen = FROZEN.read_bytes()
    out = tmp_path / "contrast_config.json"
    script = load_script("calibrate_contrast")
    assert script.main(["--trials", "2", "--out", str(out)]) == 0
    config = json.loads(out.read_text())
    assert config["budget_constant"] >= 1
    assert config["pilot"]["stats"]["rls"]["trials"] == 2
    assert FROZEN.read_bytes() == frozen
    assert str(out) in capsys.readouterr().out


def test_run_scaling_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DUALVC_THREADS", raising=False)
    out = tmp_path / "scaling.csv"
    script = load_script("run_scaling")
    assert script.main(["--trials", "1", "--sizes", "48", "56", "64",
                        "--out", str(out)]) == 0
    records = read_records(str(out))
    assert len(records) == 36
    assert {r.m for r in records} == {48, 56, 64}
    assert "within_factor_4=" in capsys.readouterr().out
