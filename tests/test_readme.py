"""The config examples in README.md load and run as documented."""

import json
import re
from pathlib import Path

import pytest

from qopt import load_config, run_experiment

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIG_BLOCKS = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_config_blocks():
    assert CONFIG_BLOCKS


@pytest.mark.parametrize("block", CONFIG_BLOCKS,
                         ids=[f"block{i}" for i in range(len(CONFIG_BLOCKS))])
def test_readme_config_runs(block, tmp_path, monkeypatch):
    # A relative output_path lands in tmp_path, not in the checkout.
    monkeypatch.chdir(tmp_path)
    config = load_config(json.loads(block))
    trace = run_experiment(config)
    assert trace.failure is None
    if config.output_path is not None:
        assert (tmp_path / config.output_path).stat().st_size > 0
