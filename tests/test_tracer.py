"""The benchmark's tracer wraps names of the package from outside: each
one it wraps must exist, and undoing it must put the originals back."""

from pathlib import Path

from vistakit import (
    cli,
    clearance,
    fidelity,
    frames,
    geometry,
    integrity,
    rules,
    synth,
    trace_io,
)

OWNERS = (cli, clearance, fidelity, frames, frames.LocalFrame, geometry,
          integrity, rules, synth, trace_io)


def test_tracer_wraps_and_restores_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    before = [dict(vars(owner)) for owner in OWNERS]
    undo = tracer.install(tracer.Tracer())
    try:
        wrapped = {(i, name) for i, owner in enumerate(OWNERS)
                   for name, value in vars(owner).items()
                   if value is not before[i].get(name)}
        assert (OWNERS.index(geometry), "min_separation") in wrapped
        assert (OWNERS.index(cli), "all_clearance_series") in wrapped
    finally:
        undo()
    for owner, attrs in zip(OWNERS, before):
        after = vars(owner)
        assert after.keys() == attrs.keys(), owner
        assert all(after[name] is value for name, value in attrs.items()), \
            owner
