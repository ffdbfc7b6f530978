"""Derivative-free descent: probe pattern, batch contract, terminations, and determinism."""

import math

import numpy as np
import pytest
from descent_oracle import one_step_entries, one_step_minimize, trace_of
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqes.optimize import (OptimizationTrace, OptimizerConfig, TraceEntry, descent, lockstep,
                           minimize)


def quadratic(center):
    center = np.asarray(center, dtype=float)
    return lambda xs: np.sum((np.asarray(xs) - center) ** 2, axis=1)


def test_probe_pattern_is_single_coordinate_offsets():
    # evaluation 1 is theta0; evaluations 2..dim+1 step exactly rho_init along
    # one coordinate each
    theta0 = np.array([0.25, -0.5, 1.0])
    trace = minimize(quadratic([1.0, 1.0, 1.0]), theta0, OptimizerConfig(rho_init=0.5))
    assert trace.entries[0].params == (0.25, -0.5, 1.0)
    assert trace.entries[1].params == (0.75, -0.5, 1.0)
    assert trace.entries[2].params == (0.25, 0.0, 1.0)
    assert trace.entries[3].params == (0.25, -0.5, 1.5)


def test_known_cost_at_theta0_is_evaluation_one():
    calls = []

    def cost(xs):
        calls.extend(tuple(x) for x in xs)
        return quadratic([1.0, 1.0])(xs)

    trace = minimize(cost, np.zeros(2), OptimizerConfig(max_evals=10), cost0=123.0)
    assert trace.entries[0].params == (0.0, 0.0)
    assert trace.entries[0].energy == 123.0
    assert (0.0, 0.0) not in calls
    # calls: stencil 2, line search 2 + 4, stencil 2, line search cut to 1 row; the
    # 4-row ask's last two candidates come after its first rejected one and are dropped
    assert len(calls) == 11
    assert [e.params for e in trace.entries[1:]] == calls[:6] + calls[8:]


def test_trace_indices_are_contiguous():
    trace = minimize(quadratic([0.5]), np.array([0.0]), OptimizerConfig(max_evals=50))
    assert [e.index for e in trace.entries] == list(range(1, trace.evaluations + 1))


def test_converges_on_a_quadratic_bowl():
    trace = minimize(quadratic([1.0, -2.0]), np.zeros(2))
    assert trace.termination == "converged"
    assert trace.evaluations <= 500
    assert trace.final_energy < 1e-9
    best = np.array(trace.best_params)
    assert np.max(np.abs(best - [1.0, -2.0])) < 1e-4


def test_converges_on_a_nonsmooth_valley():
    trace = minimize(lambda xs: np.sum(np.abs(xs), axis=1), np.array([3.3, -1.7]))
    assert trace.termination == "converged"
    assert trace.final_energy < 1e-4


def test_max_evals_termination():
    config = OptimizerConfig(tol=1e-300, max_evals=40)
    trace = minimize(quadratic([2.0, 2.0, 2.0]), np.zeros(3), config)
    assert trace.termination == "max-evals"
    assert trace.evaluations == 40


def test_threshold_termination():
    config = OptimizerConfig(threshold=0.5, max_evals=500)
    trace = minimize(quadratic([1.0, 1.0]), np.zeros(2), config)
    assert trace.termination == "threshold"
    assert trace.final_energy <= 0.5
    # the stop happens at the crossing evaluation, not at convergence
    assert trace.evaluations < 500


def test_best_entry_is_the_trace_minimum():
    trace = minimize(quadratic([0.3]), np.array([2.0]), OptimizerConfig(max_evals=30, tol=1e-300))
    energies = [e.energy for e in trace.entries]
    assert trace.final_energy == min(energies)
    assert trace.best_params == trace.entries[energies.index(min(energies))].params


def test_runs_are_deterministic():
    a = minimize(quadratic([1.0, 2.0]), np.array([0.1, 0.2]))
    b = minimize(quadratic([1.0, 2.0]), np.array([0.1, 0.2]))
    assert a.entries == b.entries
    assert a.termination == b.termination


def test_eval_budget_must_cover_the_stencil():
    with pytest.raises(ValueError, match=r"max_evals must be at least dim \+ 2 = 5"):
        minimize(quadratic([0.0, 0.0, 0.0]), np.zeros(3), OptimizerConfig(max_evals=4))


def test_empty_start_rejected():
    with pytest.raises(ValueError, match="at least one parameter"):
        minimize(quadratic([]), np.array([]))


def test_non_finite_cost_rejected():
    with pytest.raises(ValueError, match="non-finite value"):
        minimize(lambda xs: np.full(len(xs), np.nan), np.zeros(2))


def test_cost_of_the_wrong_shape_rejected():
    for wrong in (lambda xs: np.zeros(len(xs) + 1), lambda xs: 0.0,
                  lambda xs: np.zeros((len(xs), 1))):
        with pytest.raises(ValueError, match="cost returned shape"):
            minimize(wrong, np.zeros(2))


def test_config_validation():
    with pytest.raises(ValueError, match="rho_init"):
        OptimizerConfig(rho_init=0.0)
    with pytest.raises(ValueError, match="tol"):
        OptimizerConfig(tol=-1.0)
    with pytest.raises(ValueError, match="max_evals"):
        OptimizerConfig(max_evals=1)


def test_config_rejects_non_finite_settings():
    for field in ("rho_init", "tol", "threshold"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                OptimizerConfig(**{field: bad})
    assert OptimizerConfig(threshold=None).threshold is None


def recording(cost):
    """(cost that logs the row count of each call, the log)."""
    rows = []

    def logged(xs):
        rows.append(len(xs))
        return cost(xs)

    return logged, rows


def test_stencils_arrive_as_one_batch():
    cost, rows = recording(quadratic([1.0, -1.0, 2.0]))
    trace = minimize(cost, np.zeros(3))
    # evaluation 1, the first stencil, a line search asking 2 then 4 steps, then
    # stencils each followed by a 2-step ask
    assert rows == [1, 3, 2, 4] + [3, 2] * 50
    # computed rows are the recorded ones plus the candidates after each first rejection
    assert (sum(rows), trace.evaluations) == (260, 226)
    cost, rows = recording(quadratic([1.0, -1.0, 2.0]))
    trace = minimize(cost, np.zeros(3), cost0=14.0)
    assert rows == [3, 2, 4, 3, 2, 4] + [3, 2] * 63
    assert (sum(rows), trace.evaluations - 1) == (333, 288)


def test_budget_cuts_the_last_stencil_to_the_rows_left():
    cost, rows = recording(quadratic([1.0, -1.0, 2.0]))
    full = minimize(cost, np.zeros(3), OptimizerConfig(tol=1e-300, max_evals=500))
    # the second stencil starts after this many evaluations; stop 2 rows into it
    before = sum(rows[:rows.index(3, 2)])
    budget = before + 2
    cost, rows = recording(quadratic([1.0, -1.0, 2.0]))
    trace = minimize(cost, np.zeros(3), OptimizerConfig(tol=1e-300, max_evals=budget))
    assert rows[-1] == 2
    assert sum(rows) == budget
    assert trace.termination == "max-evals"
    assert trace.evaluations == budget
    assert trace.entries == full.entries[:budget]


def first_stencil_reads(values):
    """Cost 0 at the origin and values[j] where coordinate j is the first nonzero one."""
    return lambda xs: np.array([values[np.flatnonzero(x)[0]] if x.any() else 0.0 for x in xs])


def test_threshold_inside_a_stencil_discards_the_rest_of_the_batch():
    cost, rows = recording(first_stencil_reads([0.5, -0.5, -1.0, 0.5]))
    trace = minimize(cost, np.zeros(4), OptimizerConfig(rho_init=0.5, threshold=-0.4))
    assert rows == [1, 4]
    assert trace.termination == "threshold"
    # crossing at probe 2 keeps evaluations 1 .. 3
    assert [e.energy for e in trace.entries] == [0.0, 0.5, -0.5]


def test_non_finite_row_after_the_threshold_row_is_never_read():
    cost = first_stencil_reads([0.5, -0.5, float("nan"), 0.5])
    trace = minimize(cost, np.zeros(4), OptimizerConfig(rho_init=0.5, threshold=-0.4))
    assert trace.termination == "threshold"
    assert trace.evaluations == 3
    with pytest.raises(ValueError, match="non-finite value"):
        minimize(cost, np.zeros(4), OptimizerConfig(rho_init=0.5, threshold=-0.6))


def test_a_candidate_after_the_first_rejected_one_is_never_read():
    # the first line search asks for -0.5 and -1.0 at once; -0.5 is rejected,
    # so the NaN at -1.0 is computed but neither recorded nor checked
    computed = []

    def cost(xs):
        computed.extend(x for (x,) in xs.tolist())
        return np.array([{-0.5: 2.0, -1.0: math.nan}.get(x, abs(x)) for (x,) in xs.tolist()])

    trace = minimize(cost, np.zeros(1))
    assert computed[:4] == [0.0, 0.5, -0.5, -1.0]
    assert trace.termination == "converged"
    assert (-1.0,) not in trace.params
    entries, termination = one_step_entries(cost, np.zeros(1))
    assert trace == trace_of(entries, termination) and trace.entries == entries


def test_a_non_finite_value_among_accepted_steps_raises_at_the_one_step_row():
    # steps 1.0, 1.5 and 2.0 are accepted; the NaN at 2.5 sits inside the 4-row ask
    def cost(xs):
        return np.array([math.nan if x == 2.5 else -x for (x,) in xs.tolist()])

    logged, rows = recording(cost)
    with pytest.raises(ValueError, match="non-finite value") as batched:
        minimize(logged, np.zeros(1))
    assert rows == [1, 1, 2, 4]
    with pytest.raises(ValueError, match="non-finite value") as one_step:
        one_step_minimize(cost, np.zeros(1))
    assert str(batched.value) == str(one_step.value)
    assert "2.5" in str(batched.value)


def test_trace_properties_on_a_synthetic_trace():
    trace = OptimizationTrace(params=((0.0,), (0.5,), (1.0,)), energies=(3.0, 1.0, 2.0),
                              termination="max-evals")
    assert trace.evaluations == 3
    assert trace.final_energy == 1.0
    assert trace.best_params == (0.5,)
    assert trace.entries == (
        TraceEntry(index=1, params=(0.0,), energy=3.0),
        TraceEntry(index=2, params=(0.5,), energy=1.0),
        TraceEntry(index=3, params=(1.0,), energy=2.0),
    )


def test_descent_never_reports_worse_than_start():
    rng = np.random.default_rng(0)
    for trial in range(5):
        center = rng.uniform(-2, 2, size=4)
        theta0 = rng.uniform(-2, 2, size=4)
        trace = minimize(quadratic(center), theta0)
        assert trace.final_energy <= trace.entries[0].energy + 1e-15


def joined(cost, descents):
    """Drive descents in lockstep: each round evaluates every ask in one cost
    call and sends each descent its own rows. (traces, row count of each call)."""
    traces, asks, calls = {}, {}, []
    for i, steps in enumerate(descents):
        try:
            asks[i] = steps, next(steps)
        except StopIteration as done:
            traces[i] = done.value
    while asks:
        batch = list(asks.items())
        values = cost(np.concatenate([points for _, (_, points) in batch]))
        calls.append(len(values))
        offset = 0
        for i, (steps, points) in batch:
            told, offset = values[offset:offset + len(points)], offset + len(points)
            try:
                asks[i] = steps, steps.send(told)
            except StopIteration as done:
                del asks[i]
                traces[i] = done.value
    return [traces[i] for i in range(len(descents))], calls


def test_descent_asks_for_the_batches_minimize_evaluates():
    cost, rows = recording(quadratic([1.0, -1.0, 2.0]))
    trace = minimize(cost, np.zeros(3), cost0=14.0)
    traces, calls = joined(quadratic([1.0, -1.0, 2.0]), [descent(np.zeros(3), cost0=14.0)])
    assert traces == [trace]
    assert calls == rows


def test_descent_cuts_a_stencil_to_the_budget_as_minimize_does():
    config = OptimizerConfig(tol=1e-300, max_evals=12)
    cost, rows = recording(quadratic([1.0, -1.0, 2.0]))
    trace = minimize(cost, np.zeros(3), config)
    assert rows == [1, 3, 2, 4, 2] and trace.termination == "max-evals"
    assert trace.evaluations == 12  # the line search kept all 6 of its rows
    traces, calls = joined(quadratic([1.0, -1.0, 2.0]), [descent(np.zeros(3), config)])
    assert traces == [trace]
    assert calls == rows


def test_descent_stops_mid_stencil_at_the_threshold_as_minimize_does():
    cost = first_stencil_reads([0.5, -0.5, -1.0, 0.5])
    config = OptimizerConfig(rho_init=0.5, threshold=-0.4)
    traces, calls = joined(cost, [descent(np.zeros(4), config)])
    assert traces == [minimize(cost, np.zeros(4), config)]
    assert calls == [1, 4]
    # a threshold met by cost0 ends the descent before its first ask
    traces, calls = joined(cost, [descent(np.zeros(4), config, cost0=-1.0)])
    assert traces == [minimize(cost, np.zeros(4), config, cost0=-1.0)]
    assert calls == [] and traces[0].termination == "threshold"


def test_descents_of_unequal_lengths_share_each_call():
    cost = quadratic([1.0, -1.0, 2.0])
    rng = np.random.default_rng(7)
    settings = [(rng.uniform(-2, 2, 3), config, cost0)
                for config in (OptimizerConfig(max_evals=12, tol=1e-300), OptimizerConfig(),
                               OptimizerConfig(rho_init=0.1, tol=1e-3),
                               OptimizerConfig(threshold=0.5))
                for cost0 in (None, 9.0)]
    traces, calls = joined(cost, [descent(*s) for s in settings])
    expected = [minimize(cost, *s) for s in settings]
    assert traces == expected
    lengths = [t.evaluations for t in expected]
    assert len(set(lengths)) > 3
    # call i joins the i-th ask of every descent still running, each as it asks alone
    alone = []
    for s in settings:
        logged, rows = recording(cost)
        minimize(logged, *s)
        alone.append(rows)
    assert calls == [sum(rows[i] for rows in alone if i < len(rows))
                     for i in range(max(map(len, alone)))]
    # 854 rows computed: the 728 recorded and the candidates after each first rejection
    assert sum(calls) == 854
    assert sum(lengths) - sum(cost0 is not None for *_, cost0 in settings) == 728
    assert max(calls) > 3  # rows of several descents in one call


def tagged(index, steps, log):
    """steps, logging ("ask", index, rows) for each batch it asks for and
    ("end", index) when it returns."""
    values = None
    while True:
        try:
            points = steps.send(values)
        except StopIteration as end:
            log.append(("end", index))
            return end.value
        log.append(("ask", index, len(points)))
        values = yield points


def logged_run(settings, done=None):
    """lockstep over tagged descents of quadratic([1, -1, 2]), taken lazily.
    (traces, the event log, the descents asking in each cost call)."""
    log = []
    cost = quadratic([1.0, -1.0, 2.0])

    def logged_cost(xs):
        log.append(("call", len(xs)))
        return cost(xs)

    def pulled():
        for i, s in enumerate(settings):
            log.append(("pull", i))
            yield tagged(i, descent(*s), log)

    traces = lockstep(logged_cost, pulled(), done=done)
    calls, asking = [], []
    for event in log:
        if event[0] == "ask":
            asking.append(event[1:])
        elif event[0] == "call":
            # the asks made since the previous call are this call's rows
            assert sum(rows for _, rows in asking) == event[1]
            calls.append([i for i, _ in asking])
            asking = []
    assert asking == []
    return traces, log, calls


def test_lockstep_gives_each_descent_its_minimize_trace():
    rng = np.random.default_rng(3)
    settings = [(rng.uniform(-2, 2, 3), config, cost0)
                for config in (OptimizerConfig(max_evals=12, tol=1e-300), OptimizerConfig(),
                               OptimizerConfig(rho_init=0.1, tol=1e-3),
                               OptimizerConfig(threshold=0.5))
                for cost0 in (None, 9.0)]
    traces, log, calls = logged_run(settings)
    assert traces == [minimize(quadratic([1.0, -1.0, 2.0]), *s) for s in settings]
    assert max(len(asking) for asking in calls) == 4  # never more than the width
    # a descent is taken only when fewer than 4 are in flight
    live = 0
    for event in log:
        if event[0] == "pull":
            assert live < 4
            live += 1
        elif event[0] == "end":
            live -= 1


def test_lockstep_up_to_its_width_is_the_joined_drive():
    cost = first_stencil_reads([0.5, -0.5, -1.0, 0.5])
    config = OptimizerConfig(rho_init=0.5, threshold=-0.4)
    settings = [(np.zeros(4), OptimizerConfig()), (np.zeros(4), config, -1.0),
                (np.zeros(4), config), (np.ones(4), OptimizerConfig(max_evals=9))]
    expected, calls = joined(cost, [descent(*s) for s in settings])
    logged, rows = recording(cost)
    assert lockstep(logged, [descent(*s) for s in settings]) == expected
    assert rows == calls
    assert expected[1].evaluations == 1  # ended at its first ask


def test_lockstep_stops_after_the_first_descent_at_done():
    slow = OptimizerConfig(rho_init=0.01, max_evals=100)
    settings = [(np.array([5.0, 5.0, 5.0]), slow),
                (np.zeros(3), OptimizerConfig(threshold=10.0), 9.0),  # ends at its first ask
                (np.array([2.0, -1.0, 2.0]), OptimizerConfig(threshold=0.5)),
                *[(np.full(3, float(i)), OptimizerConfig()) for i in range(5)]]
    traces, log, calls = logged_run(settings, done=0.5)
    expected = [minimize(quadratic([1.0, -1.0, 2.0]), *s) for s in settings]
    assert traces == expected[:3]
    assert [t.final_energy <= 0.5 for t in expected[:4]] == [False, False, True, True]
    # descent 0 runs on after descent 2 ends, and nothing after 2 asks again
    end = log.index(("end", 2))
    assert any(event[:2] == ("ask", 0) for event in log[end:])
    assert not any(event[0] in ("ask", "pull") and event[1] > 2 for event in log[end:])
    assert max(len(asking) for asking in calls) == 4
    # a descent that meets done at its first ask ends the run with no call
    cost, rows = recording(quadratic([1.0, -1.0, 2.0]))
    first = lockstep(cost, [descent(*s) for s in settings[1:]], done=9.0)
    assert first == expected[1:2] and rows == []
    assert lockstep(quadratic([0.0]), []) == []


def test_best_entry_is_computed_once_and_left_out_of_equality():
    columns = {"params": ((0.0,), (1.0,)), "energies": (2.0, 1.0), "termination": "converged"}
    read = OptimizationTrace(**columns)
    assert (read.final_energy, read.best_params) == (1.0, (1.0,))
    assert vars(read)["_best"] == 1  # kept from the first read
    assert "entries" not in vars(read)
    assert read.entries[1] == TraceEntry(index=2, params=read.best_params, energy=read.final_energy)
    fresh = OptimizationTrace(**columns)
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example([0.0])
@example([-0.0, 0.0, -0.0])
def test_the_descent_norm_is_numpys_norm(gradient):
    # descent takes math.sqrt(g.dot(g)) as the norm of its gradient, and every
    # trace is bit-identical to the one np.linalg.norm gave only while this holds
    g = np.array(gradient)
    with np.errstate(over="ignore"):  # huge entries: both sides are inf
        assert math.sqrt(g.dot(g)) == float(np.linalg.norm(g))


def test_minimize_builds_no_entries_until_they_are_read():
    cost = row_cost((1.0, -2.0, 0.5), 0.3)
    trace = minimize(cost, np.zeros(3))
    assert trace.final_energy == min(trace.energies)
    assert trace.best_params == trace.params[trace.energies.index(trace.final_energy)]
    assert "entries" not in vars(trace)
    entries, _ = one_step_entries(cost, np.zeros(3))
    assert trace.entries == entries
    best = min(entries, key=lambda entry: entry.energy)
    assert (trace.final_energy, trace.best_params) == (best.energy, best.params)


def test_a_tie_reports_the_first_row():
    # a flat cost never moves: every row ties, and row 1 is theta0
    trace = minimize(lambda xs: np.full(len(xs), 1.5), [0.25, -0.5], OptimizerConfig(tol=0.1))
    assert trace.evaluations == 7 and set(trace.energies) == {1.5}
    assert trace.best_params == (0.25, -0.5) and vars(trace)["_best"] == 0
    # 0.0 == -0.0: the first of them is the minimum, with its own sign
    signed = OptimizationTrace(params=((0.0,), (1.0,), (2.0,), (3.0,)),
                               energies=(1.0, 0.0, -0.0, 0.0), termination="converged")
    best = min(signed.entries, key=lambda entry: entry.energy)
    assert (best.index, best.params) == (2, signed.best_params) == (2, (1.0,))
    assert math.copysign(1.0, signed.final_energy) == 1.0



def row_cost(center, wiggle):
    """A bowl with ripples whose value on each row depends on that row alone:
    a Python loop over the rows, never a BLAS product, whose last bits can
    move with the number of rows."""
    def cost(xs):
        return np.array([sum((x - c) ** 2 + wiggle * math.sin(3 * x) for x, c in zip(row, center))
                         for row in np.asarray(xs).tolist()])

    return cost


@st.composite
def descent_runs(draw):
    """((center, wiggle) of a row_cost, (theta0, config, cost0) of each descent, done)."""
    dim = draw(st.integers(1, 6))
    coords = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    center = tuple(draw(coords))
    runs = []
    for _ in range(draw(st.integers(1, 6))):
        config = OptimizerConfig(rho_init=draw(st.floats(0.05, 1.0)),
                                 tol=draw(st.sampled_from([1e-2, 1e-4, 1e-8])),
                                 max_evals=draw(st.integers(dim + 2, 200)),
                                 threshold=draw(st.none() | st.floats(-1.0, 2.0)))
        runs.append((np.array(draw(coords)), config, draw(st.none() | st.floats(-1.0, 20.0))))
    return (center, draw(st.sampled_from([0.0, 0.3]))), runs, draw(st.none() | st.floats(0.0, 1.0))


# Descents of the bowl around (1, -1, 2) from 0 whose first line search asks for
# 2 steps, then 4: the budget ends 2 rows into the 4-row ask, the threshold is
# crossed at its second row, and a cost0 starts the third; all run joined.
JOINED_EXAMPLE = (((1.0, -1.0, 2.0), 0.0),
                  [(np.zeros(3), OptimizerConfig(tol=1e-300, max_evals=8), None),
                   (np.zeros(3), OptimizerConfig(threshold=0.5), None),
                   (np.zeros(3), OptimizerConfig(), 14.0)],
                  None)


@settings(max_examples=60, deadline=None)
@given(case=descent_runs())
@example(case=JOINED_EXAMPLE)
@example(case=(JOINED_EXAMPLE[0], JOINED_EXAMPLE[1][::-1], 0.5))
def test_minimize_and_lockstep_equal_the_one_step_descent(case):
    (center, wiggle), runs, done = case
    cost = row_cost(center, wiggle)
    oracle = [one_step_entries(cost, *run) for run in runs]
    expected = [trace_of(entries, termination) for entries, termination in oracle]
    traces = [minimize(cost, *run) for run in runs]
    assert traces == expected
    assert [trace.entries for trace in traces] == [entries for entries, _ in oracle]
    # lockstep returns the traces up to the first that reaches done
    last = next((j for j, trace in enumerate(expected)
                 if done is not None and trace.final_energy <= done), len(runs) - 1)
    joined = lockstep(cost, [descent(*run) for run in runs], done=done)
    assert joined == expected[:last + 1]
    assert [trace.entries for trace in joined] == [entries for entries, _ in oracle[:last + 1]]


def test_the_joined_example_covers_each_case():
    (center, wiggle), runs, _ = JOINED_EXAMPLE
    schedules = []
    for run in runs:
        logged, rows = recording(row_cost(center, wiggle))
        schedules.append((rows, minimize(logged, *run)))
    (cut, cut_trace), (crossed, crossed_trace), (known, known_trace) = schedules
    assert cut == [1, 3, 2, 2] and cut_trace.termination == "max-evals"
    assert crossed == [1, 3, 2, 4] and crossed_trace.termination == "threshold"
    assert crossed_trace.evaluations == 8  # 2 of the 4 rows are past the crossing
    assert known[:3] == [3, 2, 4] and known_trace.entries[0].energy == 14.0
