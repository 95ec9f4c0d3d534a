"""Set-up probe: time ``import parafreq.cli`` plus ``parse_config`` on every config.

    python perfbench/setup_probe.py CONFIG_DIR

Run in a fresh process, so the import is cold the way a CLI user pays it.
Prints one JSON object: ``{"setup_s": ..., "configs": ..., "numpy": ...}``.
"""

import json
import sys
import time
from pathlib import Path


def main(config_dir: str) -> None:
    start = time.perf_counter()
    import parafreq.cli  # noqa: F401
    from parafreq.scenario import parse_config

    paths = sorted(Path(config_dir).glob("*.json"))
    for path in paths:
        parse_config(json.loads(path.read_text()), fallback_id=path.stem)
    elapsed = time.perf_counter() - start
    import numpy

    print(json.dumps({"setup_s": elapsed, "configs": len(paths), "numpy": numpy.__version__}))


if __name__ == "__main__":
    main(sys.argv[1])
