"""Sparse square matrices over ParamScalar, with serialization.

These carry R-matrices: entries are Laurent polynomials in the spectral
parameters with exact field coefficients.  Indices are 0-based internally
and 1-based, row-major in the JSON form.

JSON schema (stable; round trips byte-identically through emit -> parse ->
emit):

    {
      "dim": <int>,                     # total matrix dimension
      "domain": "rational" | "sqrt_q" | "cyclotomic(<n>)",
      "param": "mu" | null,             # whether entries involve mu
      "entries": [ {"row": r, "col": c, "value": "<canonical string>"} ]
    }
"""

from __future__ import annotations

import json
import re

from .scalars import (Domain, ParamScalar, RATIONAL, SQRT_Q, ScalarDomainError,
                      accumulate, as_param_scalar, cyclotomic, latex_str,
                      parse_param_scalar, proportionality_ratio)


# largest "dim" accepted from JSON; braid and YBE checks build dim-sized
# operators and their triple-space embeddings
MAX_DIM = 4096
MAX_ORDER = 64   # largest n of a "cyclotomic(n)" tag; the package emits n <= 8


def _domain_from_tag(tag: str) -> Domain:
    if tag == "rational":
        return RATIONAL
    if tag == "sqrt_q":
        return SQRT_Q
    m = re.fullmatch(r"cyclotomic\(([0-9]+)\)", tag)
    if m and int(m[1]) <= MAX_ORDER:
        return cyclotomic(int(m[1]))
    raise ValueError(f"unknown domain tag {tag!r} (orders go up to {MAX_ORDER})")


def matmul_entries(a: dict, b: dict) -> dict:
    """Product of two sparse matrices given as {(row, col): entry} dicts.

    Entries may be any ring elements with +, * and is_zero(); zero sums are
    dropped.
    """
    rows = {}
    for (r, k), v in b.items():
        rows.setdefault(r, []).append((k, v))
    out = {}
    for (r, k), v in a.items():
        for c, w in rows.get(k, ()):
            accumulate(out, (r, c), v * w)
    return out


def matrix_powers(m: dict, n: int, ident: dict) -> list:
    """[ident, m, m^2, ..., m^n]; the products start from m, not ident."""
    out = [ident, m][:n + 1]
    while len(out) <= n:
        out.append(matmul_entries(out[-1], m))
    return out


def kron_entries(a: dict, b: dict, d: int) -> dict:
    """Kronecker product of {(row, col): entry} dicts, d the dimension of b."""
    return {(r1 * d + r2, c1 * d + c2): v * w for (r1, c1), v in a.items()
            for (r2, c2), w in b.items()}


class ParametricMatrix:
    """Square matrix with ParamScalar entries, stored sparsely."""

    __slots__ = ("dim", "domain", "entries")

    def __init__(self, dim: int, domain: Domain, entries=None):
        self.dim = dim
        self.domain = domain
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self.set(r, c, v)

    def set(self, r: int, c: int, v):
        if not (0 <= r < self.dim and 0 <= c < self.dim):
            raise IndexError(f"index {(r, c)} out of range for dim {self.dim}")
        v = as_param_scalar(v, self.domain)
        if v.is_zero():
            self.entries.pop((r, c), None)
        else:
            self.entries[(r, c)] = v

    def get(self, r: int, c: int) -> ParamScalar:
        return self.entries.get((r, c), ParamScalar(self.domain))

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def identity(dim: int, domain: Domain) -> "ParametricMatrix":
        m = ParametricMatrix(dim, domain)
        one = ParamScalar.constant(domain.one())
        for i in range(dim):
            m.entries[(i, i)] = one
        return m

    def copy(self) -> "ParametricMatrix":
        m = ParametricMatrix(self.dim, self.domain)
        m.entries = dict(self.entries)
        return m

    # -- predicates -------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.entries

    def uses_parameters(self) -> bool:
        return any(v.uses_parameters() for v in self.entries.values())

    def support(self):
        return set(self.entries)

    def __eq__(self, other):
        if not isinstance(other, ParametricMatrix):
            return NotImplemented
        return (self.dim == other.dim and self.domain == other.domain
                and self.entries == other.entries)

    # -- arithmetic ---------------------------------------------------------------
    def _check_shape(self, other):
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        if other.domain is not self.domain and other.domain != self.domain:
            raise ScalarDomainError("cannot mix parameter scalars across domains")

    def scaled(self, v) -> "ParametricMatrix":
        v = as_param_scalar(v, self.domain)
        return self.map_entries(lambda w: v * w)

    def __matmul__(self, other):
        if not isinstance(other, ParametricMatrix):
            return NotImplemented
        self._check_shape(other)
        m = ParametricMatrix(self.dim, self.domain)
        m.entries = matmul_entries(self.entries, other.entries)
        return m

    def kron(self, other: "ParametricMatrix") -> "ParametricMatrix":
        out = ParametricMatrix(self.dim * other.dim, self.domain)
        out.entries = kron_entries(self.entries, other.entries, other.dim)
        return out

    def map_entries(self, fn) -> "ParametricMatrix":
        domain = self.domain
        mapped = {}
        for k, v in self.entries.items():
            w = fn(v)
            if not w.is_zero():
                mapped[k] = w
                domain = w.domain
        out = ParametricMatrix(self.dim, domain)
        out.entries = mapped
        return out

    def blocks(self) -> dict:
        """The mu-blocks {e: {(row, col): Scalar}} of R(mu) = sum_e mu^e
        blocks[e]; the matrix must not involve nu."""
        out = {}
        for key, v in self.entries.items():
            for (e_mu, e_nu), c in v.terms.items():
                if e_nu:
                    raise ValueError("input matrix must depend on mu only")
                out.setdefault(e_mu, {})[key] = c
        return out

    def at_one(self) -> "ParametricMatrix":
        """Evaluate all spectral parameters at 1."""
        return self.map_entries(lambda v: ParamScalar.constant(v.at_one()))

    # -- display / serialization -----------------------------------------------------
    def to_json_dict(self) -> dict:
        entries = []
        for (r, c) in sorted(self.entries):
            entries.append({"row": r + 1, "col": c + 1,
                            "value": str(self.entries[(r, c)])})
        return {"dim": self.dim,
                "domain": str(self.domain),
                "param": "mu" if self.uses_parameters() else None,
                "entries": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json_dict(obj: dict) -> "ParametricMatrix":
        domain = _domain_from_tag(obj["domain"])
        dim = obj["dim"]
        if type(dim) is not int or not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dim must be an integer in 1..{MAX_DIM}, got {dim!r}")
        m, seen, parsed = ParametricMatrix(dim, domain), set(), {}
        for ent in obj["entries"]:
            text = ent["value"]
            # each distinct string is parsed once; the parser raises on a
            # value that is no string, before it could become a key
            if type(text) is not str or text not in parsed:
                parsed[text] = parse_param_scalar(text, domain)
            v = parsed[text]
            r, c = ent["row"], ent["col"]
            if type(r) is not int or type(c) is not int:
                raise ValueError(f"row and col must be integers, got {r!r}, {c!r}")
            if (r, c) in seen:
                raise ValueError(f"entry ({r},{c}) is given more than once")
            seen.add((r, c))
            m.set(r - 1, c - 1, v)
        return m

    @staticmethod
    def from_json(text: str) -> "ParametricMatrix":
        return ParametricMatrix.from_json_dict(json.loads(text))

    def to_latex(self) -> str:
        rows = []
        for r in range(self.dim):
            cells = []
            for c in range(self.dim):
                v = self.entries.get((r, c))
                cells.append("0" if v is None else latex_str(v))
            rows.append(" & ".join(cells))
        return " \\\\\n".join(rows)

    def to_text(self) -> str:
        cells = [[str(self.entries.get((r, c), "0")) for c in range(self.dim)]
                 for r in range(self.dim)]
        widths = [max(len(cells[r][c]) for r in range(self.dim))
                  for c in range(self.dim)]
        return "\n".join(
            "[ " + "  ".join(cells[r][c].rjust(widths[c])
                             for c in range(self.dim)) + " ]"
            for r in range(self.dim))

    def __repr__(self):
        return f"ParametricMatrix(dim={self.dim}, nnz={len(self.entries)})"


# ---------------------------------------------------------------------------
# tensor-leg embeddings on V (x) V (x) V
# ---------------------------------------------------------------------------

def embed_two_site(r: ParametricMatrix, d: int, legs) -> ParametricMatrix:
    """Embed a d^2 x d^2 matrix into d^3 x d^3 acting on the given legs.

    legs is one of (0,1), (1,2), (0,2); the remaining leg carries the
    identity.
    """
    if r.dim != d * d:
        raise ValueError("matrix is not two-site for this local dimension")
    legs = tuple(legs)
    if legs == (0, 1):
        return r.kron(ParametricMatrix.identity(d, r.domain))
    if legs == (1, 2):
        return ParametricMatrix.identity(d, r.domain).kron(r)
    if legs != (0, 2):
        raise ValueError(f"bad legs {legs}")
    out = ParametricMatrix(d ** 3, r.domain)
    for (rc, cc), v in r.entries.items():
        a, x = divmod(rc, d)
        b, y = divmod(cc, d)
        for m in range(d):
            out.entries[((a * d + m) * d + x, (b * d + m) * d + y)] = v
    return out


# ---------------------------------------------------------------------------
# gauge discovery
# ---------------------------------------------------------------------------

def find_diagonal_gauge(a: ParametricMatrix, b: ParametricMatrix):
    """Find (c, lambdas) with b = c * L a L^-1, L = diag(lambdas), or None.

    The scalar c and the diagonal gauge are discovered, not assumed: c is
    read off the first diagonal entry (which diagonal conjugation fixes),
    each lambda ratio off one edge of a spanning forest of the graph of
    nonzero off-diagonal entries, and the candidate is verified entry by
    entry before being returned.
    """
    if a.dim != b.dim or a.domain != b.domain:
        return None
    if a.support() != b.support():
        return None
    one = a.domain.one()

    def ratio(key):
        return proportionality_ratio(b.entries[key], a.entries[key])

    first = min((k for k in a.entries if k[0] == k[1]), default=None)
    c = one if first is None else ratio(first)
    if c is None:
        return None
    edges = {}
    for key in a.entries:
        r, cc = key
        if r != cc:
            edges.setdefault(r, []).append((cc, key))
            edges.setdefault(cc, []).append((r, key))
    lam = [None] * a.dim
    for start in range(a.dim):
        if lam[start] is not None:
            continue
        lam[start] = one
        stack = [start]
        while stack:
            i = stack.pop()
            for j, key in edges.get(i, ()):
                if lam[j] is None:
                    # b_rc / a_rc = c * lambda_r / lambda_c on the edge (r, c)
                    g = ratio(key)
                    if g is None:
                        return None
                    lam[j] = lam[i] * c / g if key[0] == i else lam[i] * g / c
                    stack.append(j)
    cinv = [x.inverse() for x in lam]
    for (r, cc), v in a.entries.items():
        if b.entries[(r, cc)] != ParamScalar.constant(c * lam[r] * cinv[cc]) * v:
            return None
    return c, lam
