"""The benchmark tracer replaces package functions and methods by name.

A renamed or removed name would only fail a traced benchmark run
(``perfbench/run.py --trace 1``); here it fails the test suite.
"""

import contextlib
import io
import os
import sys

from multiport import bell, cli, device, exact, matrices, network, states

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_installs_and_uninstalls_on_the_package(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import tracing

    owners = [(cli, "main"), (cli, "encode_matrix"), (cli, "encode_scalar"), (cli, "encode_real"),
              (device, "exit_record"), (exact.ExactComplex, "__mul__"), (matrices.Matrix, "apply"),
              (network.WalkEngine, "run"), (bell, "process"), (bell, "classify_bell"),
              (states, "apply_port_unitary"), (states, "bosonic_product")]
    before = [getattr(owner, name) for owner, name in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(o, n) is not f for (o, n), f in zip(owners, before))
        # exact ``unitary`` calls ExactComplex methods from numpy object loops
        for argv in (["unitary", "--n", "3"], ["exits", "--mode", "exact", "--steps", "4"],
                     ["bell-table", "--mode", "exact"], ["unitary", "--n", "4", "--mode", "exact"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert tracer.op("cli", lambda: cli.main(argv)) == 0
        psi = bell.parse_bell_short("Psi+", (0, 1)), bell.parse_bell_short("Psi+", (0, 2))
        outcome = tracer.op("process", lambda: bell.process(*psi, "s", None, "exact"))
        assert outcome.output.short == "Phi+"
    finally:
        tracer.uninstall()
    assert [getattr(owner, name) for owner, name in owners] == before
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"][0] == 4
    assert metrics["bell.process.calls"][0] == 1
    assert metrics["device.compile_spec.calls"][0] == 3
    assert metrics["exact.ops"][0] > 0
    assert tracer.totals["cli.encode"][0] > 0
