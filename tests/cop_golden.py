"""SHA-256 digests pinning the default COP operator profiles.

Every predictor in the repository starts from
``OperatorProfiler(hardware=..., seed=7).build_database()`` for one GPU
generation, so those databases are upstream of every golden report.
``tests/data/golden_cop_profiles.json`` holds the SHA-256 of
:meth:`ProfileDatabase.to_json` for the 2080Ti, T4 and A100 builds;
``tests/test_profiling.py`` rebuilds all three and compares.  A
divergence means a change altered profiling arithmetic or its noise
stream, not just its speed.

Regenerate only for a deliberate behaviour change, and say so in the
commit message::

    PYTHONPATH=src python -m tests.cop_golden --write
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Dict

GOLDEN_COP_PATH = Path(__file__).parent / "data" / "golden_cop_profiles.json"


def cop_profile_digests() -> Dict[str, str]:
    """GPU generation name -> SHA-256 of its default profile database."""
    from repro.cluster.fleet import GPU_PROFILES, hardware_for_profile
    from repro.profiling import ConfigSpace, OperatorProfiler

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profiles.json"
        for name in ("2080ti", "t4", "a100"):
            profiler = OperatorProfiler(
                hardware=hardware_for_profile(GPU_PROFILES[name]),
                config_space=ConfigSpace(),
                seed=7,
            )
            profiler.build_database().to_json(path)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main() -> None:
    """Regenerate the golden COP profile digests."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write", action="store_true",
        help="overwrite tests/data/golden_cop_profiles.json",
    )
    args = parser.parse_args()
    payload = cop_profile_digests()
    if args.write:
        GOLDEN_COP_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_COP_PATH}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
