#!/usr/bin/env python3
"""Find the slowest scalar strings the parser accepts.

For each adversarial family of scalar strings, one size parameter n, this
bisects to the largest n that `parse_param_scalar` accepts, assuming that
a family accepted at n is accepted below n.  It prints that n, the string's
length, the best of 3 parse times of that string and the time the parser
took to refuse the string of size n + 1, as a Markdown table.  The parser's
work budget (`scalars.MAX_WORK`, about 0.4 s) should keep every accepted
time well under a second.  Standard library only:

    python3 scripts/parser_edges.py [--only SUBSTRING ...]
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hopfbax.scalars import RATIONAL, SQRT_Q, ScalarDomainError, cyclotomic, \
    parse_param_scalar


def _primes(n):
    out, k = [], 2
    while len(out) < n:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


def _sum(terms):
    return "(" + "+".join(terms) + ")"


def _summed(terms):
    """The sum of terms, in parenthesized groups of at most 1000 terms: the
    interpreter's parser nests one long sum too deeply near 3,000 terms."""
    terms = list(terms)
    return "+".join(_sum(terms[i:i + 1000]) for i in range(0, len(terms), 1000))


_DENSE = "*".join(_sum(f"{c + i}*q^{i}" for i in range(32)) for c in (7, 3))
_MUS, _NUS = (_sum(f"{x}^{i}" for i in range(31)) for x in ("mu", "nu"))
_BIG = (str(7 ** 4800)[:4000], str(3 ** 8500)[:4000])   # no short Euclid

# (name, domain, the string of size n, the largest n tried)
FAMILIES = [
    ("dense Q(zeta_64) products, summed", cyclotomic(64),
     lambda n: _summed([_DENSE] * n), 4096),
    ("(1+mu)*(1+s)*(1+nu), summed", SQRT_Q,
     lambda n: _summed(["(1+mu)*(1+s)*(1+nu)"] * n), 2 ** 16),
    ("4 sums of n (1+mu)*(1+s)*(1+nu)", SQRT_Q,
     lambda n: "+".join([_sum(["(1+mu)*(1+s)*(1+nu)"] * n)] * 4), 2 ** 16),
    ("distinct powers of mu, summed", SQRT_Q,
     lambda n: "+".join(f"mu^{i - 500}" for i in range(n)), 2 ** 16),
    ("mu^i*nu^j, summed (refused at the end)", SQRT_Q,
     lambda n: _summed(f"mu^{i % 1000}*nu^{i // 1000}" for i in range(n)),
     2 ** 16),
    ("powers of s, summed", SQRT_Q,
     lambda n: _summed(f"s^{i % 1001}" for i in range(n)), 2 ** 16),
    ("right-nested sum", SQRT_Q,
     lambda n: "+(".join(f"mu^{i}" for i in range(n)) + ")" * (n - 1), 2 ** 10),
    ("(1+mu) chain", SQRT_Q, lambda n: "*".join(["(1+mu)"] * n), 2 ** 12),
    ("(1+mu+nu) chain, summed", SQRT_Q,
     lambda n: _summed(["*".join(["(1+mu+nu)"] * 30)] * n), 2 ** 12),
    ("mus*nus, summed", SQRT_Q, lambda n: _summed([f"{_MUS}*{_NUS}"] * n),
     2 ** 12),
    ("signs on a 496-term product", SQRT_Q,
     lambda n: "-" * n + "(" + "*".join(["(1+mu+nu)"] * 30) + ")", 2000),
    ("40-digit integers, multiplied", RATIONAL,
     lambda n: "*".join(["9" * 40] * n), 2 ** 16),
    ("4000-digit integers, summed", RATIONAL,
     lambda n: _summed([_BIG[0]] * n), 2 ** 16),
    ("4000-digit coefficients, then 1+1+...", cyclotomic(5),
     lambda n: _summed([f"{_BIG[0]}+{_BIG[1]}*q"] + ["1"] * n), 2 ** 16),
    ("40-digit coefficient products over Q(zeta_64)", cyclotomic(64),
     lambda n: "*".join([f"({'9' * 40}+q+q^-1)"] * n), 2 ** 12),
    ("300-digit coefficients on 2 sums of n powers of mu", SQRT_Q,
     lambda n: "*".join([_sum(f"{'9' * 300}*mu^{i}" for i in range(n))] * 2),
     500),
    ("1/p for the first n primes, summed", RATIONAL,
     lambda n: _summed(f"1/{p}" for p in _primes(n)), 2 ** 14),
    ("q^-2 over Q(zeta_997), multiplied", cyclotomic(997),
     lambda n: "*".join(["q^-2"] * n), 64),
    ("1/q^995 over Q(zeta_997), summed", cyclotomic(997),
     lambda n: _summed(["1/q^995"] * n), 64),
    ("1/q, 1/mu and mu^-1 over Q(zeta_997), summed", cyclotomic(997),
     lambda n: _summed(["1/q", "1/mu", "mu^-1"] * n), 64),
    ("1/(4000-digit*q^5) over Q(zeta_64), summed", cyclotomic(64),
     lambda n: _summed([f"1/({_BIG[0]}*q^5)"] * n), 2 ** 12),
    ("q^995 over Q(zeta_997), then 1+1+...", cyclotomic(997),
     lambda n: _summed(["q^995"] + ["1"] * n), 2 ** 16),
    ("s^1000+s^-1000, then 1+1+...-s^1000", SQRT_Q,
     lambda n: _summed(["s^1000", "s^-1000"] + ["1"] * n) + "-s^1000", 2 ** 16),
    ("s^1000+s^-1000, then 1/2+1/3+1/2+...-s^1000", SQRT_Q,
     lambda n: _summed(["s^1000", "s^-1000"] + ["1/2", "1/3"] * n) + "-s^1000",
     2 ** 16),
    ("s^1000+s^-1000, then 1/p for the first n primes", SQRT_Q,
     lambda n: _summed(["s^1000", "s^-1000"] + [f"1/{p}" for p in _primes(n)])
     + "-s^1000", 2 ** 14),
]


def _parse_time(text, domain):
    """(accepted, seconds) of one parse."""
    t0 = time.perf_counter()
    try:
        parse_param_scalar(text, domain)
        ok = True
    except (ValueError, ScalarDomainError):
        ok = False
    return ok, time.perf_counter() - t0


def largest_accepted(make, domain, hi):
    """The largest n <= hi whose string is accepted (0 if none), and the
    seconds taken to refuse the string of size n + 1 (None if n == hi)."""
    lo, up = 0, 1   # lo is accepted, up is tried next and then refused
    while True:
        ok, refuse = _parse_time(make(up), domain)
        if not ok:
            break
        if up == hi:
            return hi, None
        lo, up = up, min(2 * up, hi)
    while up - lo > 1:
        mid = (lo + up) // 2
        ok, dt = _parse_time(make(mid), domain)
        if ok:
            lo = mid
        else:
            up, refuse = mid, dt
    return lo, refuse


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="+", default=[],
                    help="run only the families whose name holds one of these")
    args = ap.parse_args()
    print("| family | domain | largest accepted n | KB | best of 3 (s) "
          "| n + 1 refused in (s) |")
    print("|---|---|---|---|---|---|")
    slowest = 0.0
    for name, domain, make, hi in FAMILIES:
        if args.only and not any(s in name for s in args.only):
            continue
        n, refuse = largest_accepted(make, domain, hi)
        best, kb = None, "-"
        if n:
            text = make(n)
            kb = f"{len(text) / 1000:.1f}"
            runs = [_parse_time(text, domain) for _ in range(3)]
            if not all(ok for ok, _ in runs):
                raise SystemExit(f"{name}: size {n} is not always accepted")
            best = min(dt for _, dt in runs)
            slowest = max(slowest, best)
        print(f"| {name} | {domain} | {n}{'+' if n == hi else ''} | {kb} "
              f"| {'-' if best is None else f'{best:.3f}'} "
              f"| {'-' if refuse is None else f'{refuse:.3f}'} |", flush=True)
    print(f"\nslowest accepted string: {slowest:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
