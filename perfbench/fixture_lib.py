"""The benchmark's predictor fixture: location, digests and verification.

The fixture is the ``make bench-fast`` predictor: an M7 stack trained
for 6 epochs (seed 0) on the Table 1 database at scale 0.1 (seed 0).
It is committed as a serve artifact plus the database it was trained
on, because training it takes about a minute; ``build_fixture.py``
rebuilds both and checks that the rebuilt weights are bit-identical.

Two digests identify it.  ``weights_sha256`` hashes the model
parameters and the normalizer, so it is reproducible by a rebuild.
``artifact_sha256`` is the artifact's own content fingerprint
(``repro.serve.registry.artifact_fingerprint``); it covers the
npz blob bytes, which embed zip timestamps, so it identifies the
committed copy only.
"""

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE / "fixture"
ARTIFACT_DIR = FIXTURE_DIR / "artifact"
DATABASE_PATH = FIXTURE_DIR / "database_s0.1_r0.json"
MANIFEST_PATH = FIXTURE_DIR / "fixture.json"

#: The ``make bench-fast`` recipe the fixture is trained with.
RECIPE = {"config": "M7", "scale": 0.1, "epochs": 6, "seed": 0}


class FixtureError(RuntimeError):
    """The committed fixture does not match its recorded digests."""


def weights_digest(predictor) -> str:
    """sha256 over every parameter (name, dtype, shape, bytes) and the normalizer."""
    h = hashlib.sha256()
    for role in ("classifier", "regressor", "bram_regressor"):
        state = getattr(predictor, role).state_dict()
        for name in sorted(state):
            value = state[name]
            h.update(f"{role}/{name}/{value.dtype.str}/{value.shape}".encode())
            h.update(value.tobytes())
    h.update(repr(float(predictor.normalizer.normalization_factor)).encode())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def recorded() -> dict:
    return json.loads(MANIFEST_PATH.read_text())


def load_fixture(with_database: bool = False):
    """Verify the committed fixture and load it.

    Returns ``(predictor, database)``; ``database`` is ``None`` unless
    asked for.  Raises :class:`FixtureError` on any digest mismatch.
    """
    from repro.explorer.database import Database
    from repro.serve.registry import artifact_fingerprint, load_artifact, verify_artifact

    expect = recorded()
    manifest = verify_artifact(ARTIFACT_DIR)
    if artifact_fingerprint(manifest) != expect["artifact_sha256"]:
        raise FixtureError("fixture artifact fingerprint differs from fixture.json")
    database = None
    if with_database:
        if file_digest(DATABASE_PATH) != expect["database_sha256"]:
            raise FixtureError("fixture database differs from fixture.json")
        database = Database.load(DATABASE_PATH)
    predictor = load_artifact(ARTIFACT_DIR, database=database)
    if weights_digest(predictor) != expect["weights_sha256"]:
        raise FixtureError("fixture weights differ from fixture.json")
    return predictor, database
