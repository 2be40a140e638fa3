"""Smoke test of the layer tracer in perfbench/tracer.py, loaded from its
source and left unchanged: around one in-process ``simulate`` per decoder it
sees the encode, the per-user decode and the chosen decoder, and on exit
every binding it patched holds its original again."""

import importlib.util
import json
from pathlib import Path

import pytest

import privcache.cli
from privcache.exact import Envelope

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer) -> dict:
    """Every name bound in a loaded privcache module, plus the methods of
    ``Envelope`` (the tracer patches ``Envelope.value_at`` on the class)."""
    out = {(mod.__name__, name): value for mod in tracer._package_modules() for name, value in vars(mod).items()}
    out.update((("Envelope", name), value) for name, value in vars(Envelope).items())
    return out


@pytest.mark.parametrize("decoder", ["linear", "structural"])
def test_tracer_counts_the_decode_layers_and_restores_every_binding(decoder, capsys):
    tracer = load_tracer()
    before = bindings(tracer)
    with tracer.traced() as trace:
        code = privcache.cli.main(["simulate", "--N", "4", "--K", "3", "--L", "1", "--r", "2",
                                   "--packet", "2", "--seed", "0", "--decoder", decoder])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["correct_all"] is True
    calls = dict(zip(tracer.NAMES, trace.calls))
    failures = dict(zip(tracer.NAMES, trace.failures))
    chosen = f"ucc.decode_{decoder}"
    assert calls["ucc.encode"] > 0 and calls["scheme.decode_user"] > 0 and calls[chosen] > 0
    assert failures[chosen] == 0
    after = bindings(tracer)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
