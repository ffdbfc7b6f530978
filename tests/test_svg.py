"""Scatter rendering: structure checks only, the CSV stays the data contract."""

from dqes.landscape import run_full_dqes, run_partial_dqes
from dqes.paulis import Observable
from dqes.problems import fixture, maxcut_hamiltonian, random_graph, transverse_field_ising
from dqes.svg import PALETTE, scatter_svg


def circle_fills(svg: str) -> list[str]:
    return [line.split('fill="')[1].split('"')[0]
            for line in svg.splitlines() if line.startswith("<circle")]


def test_scatter_svg_structure():
    report = run_full_dqes(fixture("H2_075"), name="h2")
    svg = scatter_svg(report)
    assert svg.startswith("<svg xmlns=")
    assert svg.rstrip().endswith("</svg>")
    assert "generated by dqes" in svg
    assert "h2: full sweep, n=2, K=2" in svg
    # 20 record markers plus one legend marker per basis
    fills = circle_fills(svg)
    assert len(fills) == 20 + 5
    assert set(fills) == set(PALETTE[:5])


def test_scatter_svg_one_color_per_basis():
    report = run_full_dqes(transverse_field_ising(3, 0.5, 0.3))
    fills = circle_fills(scatter_svg(report))
    # 72 records over 9 bases, all palette entries used
    assert len(set(fills)) == 9
    assert len(PALETTE) == 9


def test_scatter_svg_is_deterministic():
    obs = maxcut_hamiltonian(random_graph(5, 0.5, seed=2))
    a = scatter_svg(run_partial_dqes(obs, 2))
    b = scatter_svg(run_partial_dqes(obs, 2))
    assert a == b


def test_scatter_svg_handles_flat_landscapes():
    # an identity-only observable scores every state the same; the y-range
    # padding must keep the plot well-formed instead of dividing by zero
    # even where a unit is lost in rounding: 1e17 - 1.0 == 1e17
    for coeff in (1.0, 1e17, 2.0**485):
        obs = Observable.from_strings(2, [(coeff, "II")])
        svg = scatter_svg(run_full_dqes(obs))
        assert "NaN" not in svg and "nan" not in svg and "inf" not in svg


def test_observable_names_are_escaped():
    report = run_full_dqes(fixture("H2_075"), name="a<b&c>d")
    svg = scatter_svg(report)
    assert "a&lt;b&amp;c&gt;d" in svg
