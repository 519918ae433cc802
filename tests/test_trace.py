"""The benchmark's traced pass: `perfbench/tracer.py` wraps package functions
by name, so a rename in `src/` must fail here, not in `run.py --trace 1`."""

import importlib
import inspect
from pathlib import Path

from amnmodes import cli, recurrence

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_spans_the_build(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    main = cli.main
    tracer.install()
    try:
        assert cli.main(["poly", "--m", "3", "-o", str(tmp_path / "p.json")]) == 0
        assert cli.main(["verify", "--m", "3", "-o", str(tmp_path / "v.json")]) == 0
    finally:
        tracer.uninstall()
    assert cli.main is main
    names = {span[1] for span in tracer.spans}
    assert {"recurrence.build_amn_polynomial", "polynomials.primitive_integer_form"} <= names
    # the system stage's layers, which the benchmark reports per layer
    assert {"roots.check_root_solutions", "recurrence.coefficient_polynomials"} <= names
    assert tracer.max_coeff_bits > 0


def test_pair_chain_is_its_own_span(tmp_path, monkeypatch):
    # a generator's span would close when the generator is made, with its
    # stepping charged to the caller's self time
    assert not inspect.isgeneratorfunction(recurrence.coefficient_polynomials)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "--m", "200", "-o", str(tmp_path / "v.json")]) == 0
    finally:
        tracer.uninstall()
    by_name = {}
    for sid, name, start, end, parent, _ in tracer.spans:
        by_name.setdefault(name, []).append((sid, end - start, parent))
    [(check, check_s, _)] = by_name["roots.check_root_solutions"]
    [(_, chain_s, parent)] = by_name["recurrence.coefficient_polynomials"]
    assert parent == check
    assert chain_s >= check_s / 2, (chain_s, check_s)


def test_tracer_spans_the_field_grid(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        argv = ["field", "--m", "2", "--designated", "--grid", "2", "-o", str(tmp_path / "f.csv")]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert "fields.sample_grid" in {span[1] for span in tracer.spans}
    assert tracer.aggregates["fields.ZeroModeField.evaluate"][0] == 1
