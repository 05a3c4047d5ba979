"""Every security experiment measures its channel through one trial path.

Each runner experiment that estimates a channel capacity -- flat designs
(Table 4, Table 7, the mitigation ladder, large pages), two-level and
swept hierarchies, and the RF secure-region sweep -- must run every trial
through :meth:`SecurityEvaluator.run_trial`, ``trials`` mapped plus
``trials`` unmapped runs per cell, all inside one
:meth:`SecurityEvaluator.estimate_channel` call: no private copy of the
loop.
"""

from __future__ import annotations

import pytest

from repro.runner.registry import ensure_default_experiments, get_experiment
from repro.security.evaluate import SecurityEvaluator

TRIALS = 2

#: (experiment, trials option, predicate picking one security cell).
CELLS = [
    ("table4", "table4_trials", lambda params: True),
    ("table7", "table7_trials", lambda params: True),
    ("mitigations", "mitigation_trials", lambda params: True),
    ("largepages", "largepage_trials", lambda params: True),
    ("hierarchy", "hierarchy_trials", lambda params: True),
    (
        "hierarchy_sweep",
        "hierarchy_sweep_trials",
        lambda params: params["part"] == "security",
    ),
    ("sweeps", "rf_region_trials", lambda params: params["point"] == "region"),
]


@pytest.mark.parametrize(
    "experiment_name, option, select", CELLS, ids=[c[0] for c in CELLS]
)
def test_every_trial_goes_through_run_trial(
    monkeypatch, experiment_name, option, select
):
    ensure_default_experiments()
    experiment = get_experiment(experiment_name)
    unit = next(
        unit
        for unit in experiment.units({option: TRIALS})
        if select(unit.params)
    )
    assert unit.params["trials"] == TRIALS

    trials = []
    estimates = []
    run_trial = SecurityEvaluator.run_trial
    estimate_channel = SecurityEvaluator.estimate_channel

    def counting_trial(self, program, design, rng, bus=None):
        trials.append(len(estimates))
        return run_trial(self, program, design, rng, bus)

    def counting_estimate(self, *args, **kwargs):
        estimates.append(None)
        return estimate_channel(self, *args, **kwargs)

    monkeypatch.setattr(SecurityEvaluator, "run_trial", counting_trial)
    monkeypatch.setattr(
        SecurityEvaluator, "estimate_channel", counting_estimate
    )
    experiment.run(unit.params)
    assert len(trials) == 2 * TRIALS
    assert len(estimates) == 1
    # Every trial ran after the one protocol call began.
    assert trials == [1] * (2 * TRIALS)
