import json
import re
from pathlib import Path

from synoie.config import TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_block_is_the_default_config():
    """README's configuration block lists every key with its default."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    configs = [json.loads(b) for b in blocks if b.lstrip().startswith('{\n  "seed"')]
    assert configs == [TrainConfig().to_dict()]
