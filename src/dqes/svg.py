"""
Hand-rolled SVG scatter of a landscape sweep: record index on x, energy on y,
one fixed color per basis index. No plotting library, so output bytes depend
only on the report and the tool version comment.
"""

from ._version import __version__
from .landscape import LandscapeReport

# One color per basis index 0..8 (a full 3-qubit set has 9 bases).
PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22")

_WIDTH, _HEIGHT = 960, 520
_LEFT, _RIGHT, _TOP, _BOTTOM = 80, 170, 45, 55


def scatter_svg(report: LandscapeReport) -> str:
    energies = report.energies.tolist()
    if not energies:
        raise ValueError("report has no records to plot")
    count = len(energies)
    lo, hi = min(energies), max(energies)
    if hi - lo < 1e-15:  # flat: a unit each side, or more where rounding would lose a unit
        half = max(1.0, abs(lo) / 2**50)
        lo, hi = lo - half, hi + half
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def sx(index: int) -> float:
        return _LEFT + plot_w * (index / max(count - 1, 1))

    def sy(energy: float) -> float:
        return _TOP + plot_h * (hi - energy) / (hi - lo)

    states = 2**report.k
    bases = range(states + 1)  # every subset carries every basis
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<!-- generated by dqes {__version__} -->",
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_LEFT}" y="25" font-family="sans-serif" font-size="15">'
        f"{_escape(report.observable_name)}: {report.kind} sweep, n={report.n}, K={report.k}</text>",
    ]
    # axes
    x0, y0 = _LEFT, _HEIGHT - _BOTTOM
    out.append(f'<line x1="{x0}" y1="{_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{_WIDTH - _RIGHT}" y2="{y0}" stroke="black"/>')
    for i in range(7):
        energy = lo + (hi - lo) * i / 6
        y = sy(energy)
        out.append(f'<line x1="{x0 - 4}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{x0 - 8}" y="{y + 4:.2f}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end">{energy:.6g}</text>')
    ticks = sorted({0, count // 4, count // 2, (3 * count) // 4, count - 1})
    for t in ticks:
        x = sx(t)
        out.append(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 4}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{y0 + 18}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="middle">{t}</text>')
    out.append(f'<text x="{_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 12}" font-family="sans-serif" '
               f'font-size="13" text-anchor="middle">record index</text>')
    out.append(f'<text x="20" y="{_TOP + plot_h / 2:.2f}" font-family="sans-serif" font-size="13" '
               f'text-anchor="middle" transform="rotate(-90 20 {_TOP + plot_h / 2:.2f})">energy</text>')
    # points
    for index, energy in enumerate(energies):
        color = PALETTE[(index // states) % len(bases) % len(PALETTE)]
        out.append(f'<circle cx="{sx(index):.2f}" cy="{sy(energy):.2f}" r="3" '
                   f'fill="{color}" fill-opacity="0.8"/>')
    # legend
    lx = _WIDTH - _RIGHT + 20
    for row, basis in enumerate(bases):
        ly = _TOP + 10 + 20 * row
        color = PALETTE[basis % len(PALETTE)]
        out.append(f'<circle cx="{lx}" cy="{ly}" r="5" fill="{color}"/>')
        out.append(f'<text x="{lx + 12}" y="{ly + 4}" font-family="sans-serif" '
                   f'font-size="12">basis {basis}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
