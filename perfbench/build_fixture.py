"""Rebuild the benchmark's predictor fixture from source.

    python3 perfbench/build_fixture.py           # rebuild, compare with fixture.json
    python3 perfbench/build_fixture.py --write   # rebuild and replace the committed fixture

Generates the Table 1 database at scale 0.1 (seed 0), trains the M7
stack for 6 epochs (seed 0) -- the ``make bench-fast`` settings -- and
saves it as a serve artifact.  Without ``--write`` it exits non-zero
unless the rebuilt weights and database are bit-identical to the
committed ones.  Takes about a minute on 2 cores.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fixture_lib import (  # noqa: E402
    ARTIFACT_DIR,
    DATABASE_PATH,
    FIXTURE_DIR,
    MANIFEST_PATH,
    RECIPE,
    file_digest,
    recorded,
    weights_digest,
)


def build(workdir: Path):
    from repro.experiments.context import ExperimentContext

    ctx = ExperimentContext(
        cache_dir=str(workdir),
        scale=RECIPE["scale"],
        epochs=RECIPE["epochs"],
        seed=RECIPE["seed"],
    )
    predictor = ctx.predictor(RECIPE["config"])
    return predictor, ctx.database_path, len(ctx.database())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="replace the committed fixture with the rebuild")
    args = parser.parse_args()

    from repro.serve.registry import artifact_fingerprint, save_artifact

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        predictor, db_path, records = build(Path(tmp))
        digests = {
            "weights_sha256": weights_digest(predictor),
            "database_sha256": file_digest(db_path),
        }
        if not args.write:
            expect = recorded()
            bad = [k for k, v in digests.items() if expect[k] != v]
            for key in digests:
                print(f"{key}: {digests[key]} ({'MISMATCH' if key in bad else 'ok'})")
            return 1 if bad else 0
        shutil.rmtree(ARTIFACT_DIR, ignore_errors=True)
        FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
        manifest = save_artifact(predictor, ARTIFACT_DIR)
        shutil.copyfile(db_path, DATABASE_PATH)
    payload = {
        "recipe": RECIPE,
        "database_records": records,
        "artifact_sha256": artifact_fingerprint(manifest),
        **digests,
    }
    MANIFEST_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
