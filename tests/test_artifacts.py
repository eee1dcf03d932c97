"""Every rendered artifact under ``benchmarks/results/`` is what the code
prints, byte for byte.

Each experiment id of ``repro experiment`` except ``summary`` (which
concatenates the others) has one file there, written by::

    python -m repro experiment <id> > benchmarks/results/<id>.txt

and the full cross-backend grid's JSON is committed as
``compare_backends.json``.  A change that moves any printed number fails
here and names the artifact to regenerate.
"""

from pathlib import Path

import pytest

from repro import experiments
from repro.cli import EXPERIMENT_IDS

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"
ARTIFACT_IDS = tuple(i for i in EXPERIMENT_IDS if i != "summary")


def regenerate(artifact_id: str) -> str:
    return (
        f"regenerate with: python -m repro experiment {artifact_id} "
        f"> benchmarks/results/{artifact_id}.txt"
    )


def test_results_hold_exactly_the_artifacts():
    names = sorted(path.name for path in RESULTS.iterdir())
    assert names == sorted(f"{i}.txt" for i in ARTIFACT_IDS), (
        "benchmarks/results/ must hold one <id>.txt per experiment id "
        "except summary, and nothing else"
    )


@pytest.mark.parametrize("artifact_id", ARTIFACT_IDS)
def test_rendered_artifact_is_pinned(artifact_id, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_COMPARE_OUT", str(tmp_path / "compare.json"))
    rendered = getattr(experiments, artifact_id).main() + "\n"
    path = RESULTS / f"{artifact_id}.txt"
    assert path.is_file(), f"{path.name} is missing; {regenerate(artifact_id)}"
    committed = path.read_bytes().decode("utf-8", "replace")
    assert rendered == committed, (
        f"{path.name} differs from what the code prints; "
        f"{regenerate(artifact_id)}"
    )


def test_compare_json_is_pinned(tmp_path, monkeypatch):
    out = tmp_path / "compare_backends.json"
    monkeypatch.setenv("REPRO_COMPARE_OUT", str(out))
    experiments.compare.main()
    assert out.read_bytes() == (REPO / "compare_backends.json").read_bytes(), (
        "compare_backends.json differs from what the code writes; "
        "regenerate with: python -m repro experiment compare"
    )
