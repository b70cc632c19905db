"""Footprint guards: what the table build holds and what a filtered step
asks of the allocator.

The table build keeps the apply plan and the class counts; the resonant
set itself is derived only when something reads its columns.  The product
samples of the fields kernel live in a buffer of the geometry's cache, so
a filtered step after warm-up takes no fresh pages, also in a process in
which no earlier large free has raised the allocator's thresholds.
"""

import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import frspec.forms as forms
from frspec.forms import FormEngine
from frspec.geometry import TorusGeometry
from frspec.harness import SimConfig, random_initial_data, run_sweep
from frspec.solvers import EnergyLedger, FilteredStepper, SimState

SRC = str(Path(__file__).resolve().parents[1] / "src")

# tracemalloc peak of the (1, 2, 3)/N8 build: 12.5-13.9 MB measured, 20.8-22.3
# MB while the build sorted and kept every row of the resonant set
TABLE_PEAK_MB = 16.0
# minor page faults per filtered step at (1, 1, 1)/N4 after warm-up: 0 in
# every layout of the guard measured, up to 250-360 while the kernel took a
# fresh array for its product samples on every call
STEP_FAULTS_MAX = 10
# bytes a filtered step at (1, 1, 1)/N4 allocates beyond what it holds:
# 484 KB measured, 638 KB with the product samples in a fresh array per call
STEP_TRANSIENT_KB = 560


def test_table_build_peak():
    tracemalloc.start()
    try:
        tab, _ = FormEngine(TorusGeometry((1, 2, 3), 8), 1.0).tables
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert tab.rows == 449_472 and len(tab.W) == 28_708
    assert peak < TABLE_PEAK_MB, f"{peak:.1f} MB"


def test_run_sweep_never_derives_the_resonant_set(monkeypatch):
    derived = []

    def spy(g, pairs, radical, full, fn=forms._triad_keys):
        derived.append(full)
        return fn(g, pairs, radical, full)

    monkeypatch.setattr(forms, "_triad_keys", spy)
    # the default config up to its first snapshot: every stage of the sweep
    # (tables, limit solve, each eps, the summary) on the default table
    report = run_sweep(replace(SimConfig(), T=SimConfig().snapshot_dt))
    assert len(report.rows) == 3
    assert report.summary["resonance_counts"]["tilde_rows"] == 44_880
    assert derived == [False]  # the build's plan only


def test_filtered_step_takes_no_fresh_pages():
    # fresh interpreters with piped output, so no earlier large free has
    # raised the allocator's thresholds; whether a transient array lands at
    # the top of the heap, where its free trims pages that the next step
    # takes again, depends on the heap's layout, so the guard reads the
    # median over five layouts, shifted by a small block allocated first
    script = """
import sys
_shift = bytearray({pad})
import resource
sys.path.insert(0, {src!r})
from frspec.forms import FormEngine
from frspec.harness import SimConfig, random_initial_data
from frspec.solvers import EnergyLedger, FilteredStepper, SimState
V, _ = random_initial_data(SimConfig())
stepper = FilteredStepper(FormEngine(V.geometry, 1.0), eps=0.1, dt=1e-3)
state, ledger = SimState(0.0, V, 1.0, 0.1), EnergyLedger(1.0)
for _ in range(20):
    state = stepper.step(state, ledger)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    state = stepper.step(state, ledger)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script.format(pad=pad, src=SRC)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for pad in range(0, 3500, 700)
    ]
    outs = [p.communicate() for p in procs]
    assert all(p.returncode == 0 for p in procs), [err for _, err in outs]
    faults = sorted(float(out) for out, _ in outs)
    assert faults[2] <= STEP_FAULTS_MAX, faults


def test_filtered_step_transients():
    # the allocator-independent side of the guard above: the bytes a step
    # allocates on top of what it holds (tracemalloc) at (1, 1, 1)/N4, after
    # warm-up
    V, _ = random_initial_data(SimConfig())
    stepper = FilteredStepper(FormEngine(V.geometry, 1.0), eps=0.1, dt=1e-3)
    state, ledger = SimState(0.0, V, 1.0, 0.1), EnergyLedger(1.0)
    for _ in range(3):
        state = stepper.step(state, ledger)
    tracemalloc.start()
    try:
        worst = 0
        for _ in range(3):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            state = stepper.step(state, ledger)
            worst = max(worst, tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert worst < STEP_TRANSIENT_KB * 1024, f"{worst / 1024:.0f} KB"
