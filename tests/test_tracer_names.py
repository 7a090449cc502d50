"""The names bench/layers.py wraps from outside must exist in the package:
a renamed function would read as a missing (null) per-layer metric only
in a traced benchmark run, so it fails here first."""

import importlib
import importlib.util
from pathlib import Path

from eigensums import harmonic
from eigensums.exactnum import Residue

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_layers().SPANS
    assert spans
    for span, targets in spans.items():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                assert hasattr(owner, part), f"{span}: {module_name}.{path} does not exist"
                owner = getattr(owner, part)
            assert callable(owner), f"{span}: {module_name}.{path}"


def test_counters_the_tracer_reads_exist():
    assert callable(harmonic.harmonic_table.cache_info)
    assert callable(Residue.__post_init__)
