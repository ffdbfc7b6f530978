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

    @staticmethod
    def from_masks(n: int, x_mask: int, z_mask: int) -> "PauliString":
        out = []
        for k in range(n):
            bit = 1 << (n - 1 - k)
            xa, za = bool(x_mask & bit), bool(z_mask & bit)
            out.append("Y" if xa and za else "X" if xa else "Z" if za else "I")
        return PauliString("".join(out))


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


def compile_observable(obs: Observable):
    """Function rows -> <psi|H|psi> of each row of a (B, 2^n) amplitude stack.

    The rows are not checked. Each term's (src, phase) is built once; a call
    forms each term's phase * rows[:, src] once (a diagonal term moves nothing
    and skips the gather) and adds coeff * <psi|P psi> to every row's total in
    canonical order, as applying one Pauli at a time gives them (pauli_apply in
    tests/reference_path.py). np.vecdot sums each row as np.vdot does, but only
    over unit-stride rows: BLAS sums a strided vector in another order, which
    moves the last bits.
    Raises ValueError when a row's sum has an imaginary residue above
    1e-10 * max(1, W), W = sum |coeff|, which bounds the sum of a unit row.
    """
    dim = 2**obs.n
    bound = 1e-10 * max(1.0, _weight(obs.terms))
    terms = []
    for coeff, pauli in obs.terms:
        src, phase = _pauli_action(dim, pauli.x_mask, pauli.z_mask)
        terms.append((coeff, src if pauli.x_mask else None, phase))

    def energies(rows: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(rows, dtype=complex)
        totals = np.zeros(len(rows), dtype=complex)
        moved = np.empty_like(rows)
        for coeff, src, phase in terms:
            if src is not None:
                rows.take(src, axis=1, out=moved)
            np.multiply(phase, rows if src is None else moved, out=moved)
            totals = totals + coeff * np.vecdot(rows, moved)
        residue = np.flatnonzero(np.abs(totals.imag) > bound)
        if residue.size:
            raise ValueError(f"expectation has imaginary residue {totals.imag[residue[0]]:.3e}")
        return totals.real.copy()

    return energies


def observable_matrix(obs: Observable) -> np.ndarray:
    """Dense 2^n x 2^n Hermitian matrix of the observable, scattered from each
    term's (src, phase): P[b, src[b]] = phase[b], added in canonical order."""
    dim = 2**obs.n
    rows = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, pauli in obs.terms:
        src, phase = _pauli_action(dim, pauli.x_mask, pauli.z_mask)
        out[rows, src] += coeff * phase
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
