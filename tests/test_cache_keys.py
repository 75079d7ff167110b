"""Cache and journal keys, pinned: existing caches and journals stay valid.

A key is a SHA-256 over a cell's canonical payload plus the code salt,
so a refactor of how a grid cell is described can silently orphan every
stored result.  ``cache_keys.json`` records, with the code salt pinned
to a constant:

* for each bundled scenario (at a short horizon) sent as a one-cell
  grid request: the stored cell's cache key and the journal's grid key,
  plus the daemon's ``serve-artifact`` key of the same scenario's run
  request;
* for a ``repro grid``-shaped spec list (algorithms x rates, each cell
  labelled with its algorithm and rho): every stored cell key and the
  journal's grid key.

Only :func:`repro.service.execute`, :class:`~repro.service.RunRequest`
and :meth:`repro.exec.ResultCache.key_for` produce the keys, so the
golden holds against any rewrite of the grid layer beneath them.
Regenerate only for a deliberate key change (which orphans every
existing cache entry) with ``PYTHONPATH=src python tests/test_cache_keys.py``.
"""

import json
import pathlib
import sys
import tempfile

import repro.exec.cache
from repro.exec import ResultCache
from repro.scenarios import ScenarioSpec, load_spec
from repro.service import RunOptions, RunRequest, execute

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cache_keys.json"
SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

#: Stands in for the hash of the sources, which changes with every edit.
PINNED_SALT = "cache-keys-golden"
HORIZON = "300"


def _grid_keys(specs, workdir: pathlib.Path):
    """(sorted stored cell keys, journal grid key) of one grid request."""
    cache_dir = workdir / "cache"
    journal = workdir / "journal.jsonl"
    result = execute(RunRequest(
        specs=tuple(specs), command="grid",
        options=RunOptions(cache=True, cache_dir=str(cache_dir),
                           journal=str(journal)),
    ))
    assert not result.report.failures, result.report.failures
    cells = sorted(path.stem for path in ResultCache(cache_dir).entries())
    header = json.loads(journal.read_text(encoding="utf-8").splitlines()[0])
    return cells, header["grid"]


def _cli_grid_specs():
    """The specs ``repro grid --algorithms ca-arrow,ao-arrow --rhos
    1/2,9/10 --horizon 300`` builds (the CLI's other flags at default)."""
    return [
        ScenarioSpec(
            algorithm=algorithm, n=4, max_slot="2", schedule="worst",
            rho=rho, burst=1, horizon=HORIZON, seed=0, faults=(),
            labels={"algorithm": algorithm, "rho": rho},
        )
        for algorithm in ("ca-arrow", "ao-arrow")
        for rho in ("1/2", "9/10")
    ]


def cache_keys(workdir: pathlib.Path) -> str:
    """The golden document, computed under the pinned salt."""
    artifacts = ResultCache(workdir / "unused", salt=PINNED_SALT)
    document = {"scenarios": {}, "cli-grid": {}}
    for path in sorted(SCENARIOS.glob("*.json")):
        spec = load_spec(path).replace(horizon=HORIZON)
        cells, grid = _grid_keys([spec], workdir / path.stem)
        run = RunRequest(specs=(spec,), command="run")
        document["scenarios"][path.stem] = {
            "cell": cells,
            "grid": grid,
            "serve-artifact": artifacts.key_for(
                {"kind": "serve-artifact", "request": run.canonical()}
            ),
        }
    cells, grid = _grid_keys(_cli_grid_specs(), workdir / "cli-grid")
    document["cli-grid"] = {"cells": cells, "grid": grid}
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def test_cache_and_journal_keys_match_golden(tmp_path, monkeypatch):
    monkeypatch.setattr(repro.exec.cache, "_CODE_SALT", PINNED_SALT)
    assert cache_keys(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    repro.exec.cache._CODE_SALT = PINNED_SALT
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(cache_keys(pathlib.Path(scratch)), encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
