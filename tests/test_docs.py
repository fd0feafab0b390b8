import json
import re
from pathlib import Path

from synoie import autodiff as ad
from synoie.config import TrainConfig

from test_model import default_instance_losses

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_block_is_the_default_config():
    """README's configuration block lists every key with its default."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    configs = [json.loads(b) for b in blocks if b.lstrip().startswith('{\n  "seed"')]
    assert configs == [TrainConfig().to_dict()]


def test_readme_tape_count_is_the_default_instance_tape():
    """The tape size README states is what the default training instance
    records."""
    stated = re.findall(r"records a tape of (\d+) nodes",
                        " ".join(README.read_text(encoding="utf-8").split()))
    parts = default_instance_losses()
    assert [int(k) for k in stated] == [len(ad.Tape(parts["total"]).order)]
