"""
Pauli strings, weighted-sum observables, and expectation values.

A Pauli string is a letter sequence over IXYZ, one letter per qubit, leftmost
letter on qubit 1. Internally each string carries two bitmasks in the usual
symplectic encoding: x_mask marks X and Y positions, z_mask marks Z and Y
positions, with qubit q on bit n - q.

Observables are real-weighted sums of Pauli strings. They canonicalize on
construction (duplicate strings merged, exact zeros dropped, terms in
lexicographic order) so hashing, sampling order, and file round-trips are
deterministic.
"""

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

_LETTERS = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliString:
    letters: str
    x_mask: int = field(init=False, compare=False)
    z_mask: int = field(init=False, compare=False)

    def __post_init__(self):
        if not self.letters:
            raise ValueError("Pauli string must have at least one letter")
        bad = set(self.letters) - _LETTERS
        if bad:
            pos = next(i for i, c in enumerate(self.letters) if c in bad)
            raise ValueError(
                f"invalid Pauli letter {self.letters[pos]!r} at position {pos} in {self.letters!r}")
        n = len(self.letters)
        x = z = 0
        for k, c in enumerate(self.letters):
            bit = 1 << (n - 1 - k)
            if c in "XY":
                x |= bit
            if c in "ZY":
                z |= bit
        object.__setattr__(self, "x_mask", x)
        object.__setattr__(self, "z_mask", z)

    @property
    def n(self) -> int:
        return len(self.letters)


def _pauli_action(dim: int, x_mask: int, z_mask: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, phase) with (P psi)[b] = phase[b] * psi[src[b]] for the Pauli P with
    these masks: X/Y positions flip bits, Y and Z positions contribute
    (-1)^bit, and each Y contributes a factor i."""
    src = np.arange(dim) ^ x_mask
    signs = 1 - 2 * (np.bitwise_count(src & z_mask).astype(np.int64) & 1)
    return src, (1j ** bin(x_mask & z_mask).count("1")) * signs


# The largest W = sum |coeff| an Observable takes. Every normalized state has
# |<psi|H|psi>| <= W, and float64 rounding is monotone, so coefficients times
# signs or phases, added in canonical order, stay within the same sum of their
# absolute values: every record energy, VQE cost value and dense-matrix entry
# lies within W, up to the rounding of a unit row or of a complex modulus.
# Then everything downstream is finite: a basis statistic's variance adds at
# most (2W)^2 = 2^972 per record, over fewer than 2^52 records; the plot's
# padded span is 1.1 * 2W; and eigh meets no entry past 2^485, above which
# it would rescale the matrix (problems._EIGH_UNSCALED_MIN). The descent's
# gradient norm guards its own squares (optimize.descent).
_MAX_WEIGHT = 2.0**485


def _weight(terms) -> float:
    """W = sum |coeff|, added in the order of the terms."""
    return sum(abs(coeff) for coeff, _ in terms)


@dataclass(frozen=True)
class Observable:
    """sum_i coeff_i * P_i with real coefficients, canonical on construction.

    Raises ValueError unless W = sum |coeff| of the merged terms is at most
    _MAX_WEIGHT = 2^485, so a non-finite coefficient is refused too; the
    comment on _MAX_WEIGHT derives the bound.
    """

    n: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"observable needs at least one qubit, got n={self.n}")
        merged: dict[str, float] = {}
        for coeff, pauli in self.terms:
            if pauli.n != self.n:
                raise ValueError(
                    f"term {pauli.letters!r} has {pauli.n} letters, observable is on {self.n} qubits")
            try:
                value = float(coeff)
            except OverflowError:
                raise ValueError(
                    f"coefficient of {pauli.letters!r} is too large for a float64") from None
            merged[pauli.letters] = merged.get(pauli.letters, 0.0) + value
        canon = tuple(
            (c, PauliString(s)) for s, c in sorted(merged.items()) if c != 0.0)
        w = _weight(canon)
        if not w <= _MAX_WEIGHT:  # inf and nan too
            raise ValueError(f"W = sum |coeff| = {w!r} must be at most 2^485 = {_MAX_WEIGHT!r}")
        object.__setattr__(self, "terms", canon)

    @staticmethod
    def from_strings(n: int, pairs) -> "Observable":
        """Build from (coeff, letters) pairs."""
        return Observable(n, tuple((c, PauliString(s)) for c, s in pairs))


def _x_mask_form(obs: Observable) -> dict[int, np.ndarray]:
    """H = sum_x D_x X^x, with (X^x psi)[b] = psi[b ^ x]: {x: D_x} for each
    distinct x_mask in ascending order, D_x the sum of coeff * phase over the
    terms with that mask, added in canonical order to complex zeros. An
    observable with no terms has no group."""
    dim = 2**obs.n
    diagonals: dict[int, np.ndarray] = {}
    for coeff, pauli in obs.terms:
        _, phase = _pauli_action(dim, pauli.x_mask, pauli.z_mask)
        diagonal = diagonals.setdefault(pauli.x_mask, np.zeros(dim, dtype=complex))
        diagonal += coeff * phase
    return dict(sorted(diagonals.items()))


def compile_observable(obs: Observable):
    """Function rows -> <psi|H|psi> of each row of a (B, 2^n) amplitude stack.

    The rows are not checked. H is compiled once from its X-mask form
    (_x_mask_form): each group's gather index src (none for x = 0, which moves
    nothing) and its diagonal D_x. A call takes conj(rows) once and, for each
    group, adds np.add.reduce(conj(rows) * (D_x * rows[:, src]), axis=1).
    Each step is elementwise or sums one contiguous row, and none calls BLAS,
    so row i's value depends neither on the other rows nor on the layout of
    the input, the BLAS kernel or the thread count. It agrees with the
    term-by-term sum (pauli_apply in tests/reference_path.py) to rounding,
    not bit for bit.
    Raises ValueError when a row's sum has an imaginary residue above
    1e-10 * max(1, W), W = sum |coeff|, which bounds the sum of a unit row.
    """
    dim = 2**obs.n
    bound = 1e-10 * max(1.0, _weight(obs.terms))
    groups = [(np.arange(dim) ^ x if x else None, diagonal)
              for x, diagonal in _x_mask_form(obs).items()]

    def energies(rows: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(rows, dtype=complex)
        bra = np.conj(rows)
        totals = np.zeros(len(rows), dtype=complex)
        moved = np.empty_like(rows)
        for src, diagonal in groups:
            if src is not None:
                rows.take(src, axis=1, out=moved)
            np.multiply(diagonal, rows if src is None else moved, out=moved)
            np.multiply(bra, moved, out=moved)
            totals += np.add.reduce(moved, axis=1)
        residue = np.flatnonzero(np.abs(totals.imag) > bound)
        if residue.size:
            raise ValueError(f"expectation has imaginary residue {totals.imag[residue[0]]:.3e}")
        return totals.real.copy()

    return energies


def observable_matrix(obs: Observable) -> np.ndarray:
    """Dense 2^n x 2^n Hermitian matrix, H[b, b ^ x] = D_x[b], one scatter per
    group of the X-mask form. Only group x's terms reach those entries, so they
    hold the sums a term-by-term scatter from zero in canonical order makes."""
    dim = 2**obs.n
    rows = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for x, diagonal in _x_mask_form(obs).items():
        out[rows, rows ^ x] = diagonal
    return out


# --- JSON codec ------------------------------------------------------------
#
# File format: {"n": <int>, "terms": [{"coeff": <number>, "pauli": "<IXYZ string>"}, ...]}


def encode_observable(obs: Observable) -> str:
    doc = {
        "n": obs.n,
        "terms": [{"coeff": c, "pauli": p.letters} for c, p in obs.terms],
    }
    return json.dumps(doc, indent=2) + "\n"


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} is not allowed in observable files")


def _parse_int(text: str) -> int | float:
    # An integer of more than 308 digits may lie past the float64 range (below
    # 1.8e308). It is read as a float, inf when it does, so it meets the same
    # range check as a float literal like 1e400, and never int()'s digit limit.
    return float(text) if len(text.lstrip("-")) > 308 else int(text)


def decode_observable(text: str) -> Observable:
    try:
        doc = json.loads(text, parse_constant=_reject_constant, parse_int=_parse_int)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object at the top level, got {type(doc).__name__}")
    if "n" not in doc:
        raise ValueError("missing required key 'n'")
    if "terms" not in doc:
        raise ValueError("missing required key 'terms'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    terms_doc = doc["terms"]
    if not isinstance(terms_doc, list):
        raise ValueError(f"'terms' must be an array, got {type(terms_doc).__name__}")
    terms = []
    for i, entry in enumerate(terms_doc):
        if not isinstance(entry, dict):
            raise ValueError(f"terms[{i}] must be an object, got {type(entry).__name__}")
        if "coeff" not in entry or "pauli" not in entry:
            raise ValueError(f"terms[{i}] needs both 'coeff' and 'pauli'")
        coeff = entry["coeff"]
        if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
            raise ValueError(f"terms[{i}].coeff must be a number, got {coeff!r}")
        if not math.isfinite(coeff):  # Infinity and NaN are refused while parsing
            raise ValueError(f"terms[{i}].coeff is outside the float64 range, "
                             f"whose largest magnitude is {sys.float_info.max!r}")
        letters = entry["pauli"]
        if not isinstance(letters, str):
            raise ValueError(f"terms[{i}].pauli must be a string, got {letters!r}")
        bad = set(letters) - _LETTERS
        if bad:
            pos = next(k for k, c in enumerate(letters) if c in bad)
            raise ValueError(f"terms[{i}].pauli: invalid letter {letters[pos]!r} at position {pos}")
        if len(letters) != n:
            raise ValueError(f"terms[{i}].pauli has {len(letters)} letters, expected n={n}")
        terms.append((coeff, PauliString(letters)))
    return Observable(n, tuple(terms))


def load_observable(path) -> Observable:
    try:
        with open(path) as f:
            return decode_observable(f.read())
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def observable_hash(obs: Observable) -> str:
    """sha256 of the canonical encoding; stable identity for reports and manifests."""
    return hashlib.sha256(encode_observable(obs).encode()).hexdigest()
