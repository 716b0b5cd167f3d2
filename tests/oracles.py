"""Independent reference implementations used as test oracles.

Everything here is deliberately written by the dumbest correct method
available (permutation expansions, literal subset enumeration, nested
pair counting) so that agreement with the package is evidence, not an
echo.  Nothing in this file imports package internals beyond the public
constructors needed to drive it, save one: the omit-one determinants
are taken by the package's exact elimination (linalg.row_reduce), the
route the batched charpoly kernel replaced, and the lemma-check suites
are kept here in their one-trial-at-a-time form on top of them.
"""

import itertools
from collections import Counter

from slgrowth import (
    PrimeField,
    SemisimplicityClass,
    SpecialLinear,
    cyclic_product_coordinates,
    elementary_symmetric,
    vandermonde_product,
)
from slgrowth import linalg


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (lists low-to-high, independent of slgrowth.polys)


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def poly_add(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] = ai
    for j, bj in enumerate(b):
        out[j] = (out[j] + bj) % p
    return out


def poly_from_roots(roots, p):
    """prod_r (x - r), monic."""
    out = [1]
    for r in roots:
        out = poly_mul(out, [(-r) % p, 1], p)
    return out


def synthetic_division(coeffs, root, p):
    """Divide by (x - root) via Horner; returns (quotient, remainder)."""
    n = len(coeffs) - 1
    q = [0] * n
    carry = coeffs[n]
    for k in range(n - 1, -1, -1):
        q[k] = carry
        carry = (coeffs[k] + root * carry) % p
    return q, carry


def root_multiplicities(coeffs, p):
    """{rational root: multiplicity} by scan plus repeated deflation."""
    out = {}
    for lam in range(p):
        m = 0
        work = list(coeffs)
        while len(work) > 1:
            q, rem = synthetic_division(work, lam, p)
            if rem != 0:
                break
            m += 1
            work = q
        if m:
            out[lam] = m
    return out


# ---------------------------------------------------------------------------
# matrix oracles


def charpoly_oracle(n, p, g):
    """det(xI - g) by permutation expansion; coefficients low-to-high."""
    entries = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                entries[(i, j)] = [(-g[i * n + j]) % p, 1]
            else:
                entries[(i, j)] = [(-g[i * n + j]) % p]
    total = [0]
    for perm in itertools.permutations(range(n)):
        sign = perm_sign(perm)
        term = [1]
        for i in range(n):
            term = poly_mul(term, entries[(i, perm[i])], p)
        if sign < 0:
            term = [(-c) % p for c in term]
        total = poly_add(total, term, p)
    return total


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def matrix_rank_oracle(rows, p):
    """Row-reduction rank, written independently of slgrowth.linalg."""
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                factor = rows[r][col]
                rows[r] = [
                    (rows[r][c] - factor * rows[rank][c]) % p for c in range(cols)
                ]
        rank += 1
    return rank


def minimal_polynomial_oracle(n, p, g):
    """Lowest-degree monic f with f(g) = 0 (coefficients low-to-high),
    found by trying every monic polynomial of degree 0, 1, ..., n."""
    powers = [tuple(int(i == j) for i in range(n) for j in range(n))]
    for _ in range(n):
        prev = powers[-1]
        powers.append(tuple(
            sum(prev[i * n + k] * g[k * n + j] for k in range(n)) % p
            for i in range(n) for j in range(n)
        ))
    for degree in range(n + 1):
        for low in itertools.product(range(p), repeat=degree):
            coeffs = list(low) + [1]
            if all(
                sum(c * powers[k][e] for k, c in enumerate(coeffs)) % p == 0
                for e in range(n * n)
            ):
                return coeffs
    raise AssertionError("no annihilating polynomial of degree <= n")


def poly_divides(q, f, p):
    """Does monic q divide f?  Schoolbook long division."""
    rem = list(f)
    for low in range(len(rem) - len(q), -1, -1):
        c = rem[low + len(q) - 1]
        for k, qk in enumerate(q):
            rem[low + k] = (rem[low + k] - c * qk) % p
    return not any(rem)


def squarefree_oracle(f, p):
    """No monic q of degree 1..deg(f)/2 has q^2 | f: a repeated
    irreducible factor of f would be such a q."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            q = list(low) + [1]
            if poly_divides(poly_mul(q, q, p), f, p):
                return False
    return True


def classify_oracle(space, g):
    """Diagonalizability over the splitting field, decided rationally
    for n <= 3 and by brute force for n >= 4 at small p.

    For n <= 3 any repeated eigenvalue of a degree <= 3 polynomial over
    F_p is itself rational (conjugate roots of an irreducible factor are
    distinct and share multiplicity), so it is enough to inspect the
    rational roots.  An element is regular semisimple when no root
    repeats, and semisimple when every repeated rational eigenvalue has
    a full eigenspace: rank(g - lam*I) = n - multiplicity.

    For n >= 4 an element is regular semisimple when its charpoly is
    squarefree, and semisimple when the minimal polynomial found by
    minimal_polynomial_oracle is; both squarefree tests go by
    squarefree_oracle.  The cost grows as p^n.
    """
    n, p = space.n, space.p
    coeffs = charpoly_oracle(n, p, g)
    if n >= 4:
        if squarefree_oracle(coeffs, p):
            return SemisimplicityClass.REGULAR_SEMISIMPLE
        if squarefree_oracle(minimal_polynomial_oracle(n, p, g), p):
            return SemisimplicityClass.SEMISIMPLE_NOT_REGULAR
        return SemisimplicityClass.NOT_SEMISIMPLE
    mults = root_multiplicities(coeffs, p)
    if all(m == 1 for m in mults.values()):
        return SemisimplicityClass.REGULAR_SEMISIMPLE
    for lam, m in mults.items():
        if m == 1:
            continue
        shifted = [
            [(g[i * n + j] - (lam if i == j else 0)) % p for j in range(n)]
            for i in range(n)
        ]
        if matrix_rank_oracle(shifted, p) != n - m:
            return SemisimplicityClass.NOT_SEMISIMPLE
    return SemisimplicityClass.SEMISIMPLE_NOT_REGULAR


def conjugation_orbit(space, g):
    """{h g h^-1 : h in G(K)}; only sane at SL_2(F_5) scale."""
    from slgrowth import full_group

    G = full_group(space)
    mul, inv = space.mul, space.inv
    return frozenset(mul(mul(h, g), inv(h)) for h in G.members)


# ---------------------------------------------------------------------------
# symmetric polynomial / energy oracles


def elementary_symmetric_bruteforce(s, m, p):
    """Sum over literal m-subsets; exponential, fine for n <= 6."""
    if m == 0:
        return 1
    total = 0
    for combo in itertools.combinations(s, m):
        prod = 1
        for v in combo:
            prod = (prod * v) % p
        total = (total + prod) % p
    return total % p


def energy_by_pairs(p, xs, ys):
    """Sum of squared difference multiplicities, counted pair by pair."""
    counts = Counter((a - b) % p for a in xs for b in ys)
    return sum(c * c for c in counts.values())


def difference_counts_by_pairs(p, xs, ys):
    """[r(d) for d in 0..p-1], r(d) = #{(a, b) : a - b = d mod p}, pair by pair."""
    counts = Counter((a - b) % p for a in xs for b in ys)
    return [counts[d] for d in range(p)]


def support_by_pairs(p, xs, ys):
    """The difference set X - Y, collected pair by pair."""
    return {(a - b) % p for a in xs for b in ys}


def energy_by_autocorrelation(p, xs, ys):
    """E(X,Y) = sum_d c_X(d) * c_Y(d) with c_S(d) = #{(a,a') in S^2: a-a'=d}."""
    cx = Counter((a - b) % p for a in xs for b in xs)
    cy = Counter((a - b) % p for a in ys for b in ys)
    return sum(mult * cy.get(d, 0) for d, mult in cx.items())


def energy_by_convolution(p, xs, ys):
    """Exact convolution table via big-integer slot packing.

    Indicator vectors are packed into one integer with 32-bit slots;
    integer multiplication then performs the full convolution exactly
    (slot sums stay far below 2^32 for |X|,|Y| <= 10^3), and wrapping
    k and k+p folds the result mod x^p - 1.
    """
    slot = 32
    mask = (1 << slot) - 1
    ax = 0
    for x in xs:
        ax |= 1 << (slot * x)
    ay = 0
    for y in ys:
        ay |= 1 << (slot * ((-y) % p))
    prod = ax * ay
    energy = 0
    for d in range(p):
        lo = (prod >> (slot * d)) & mask
        hi = (prod >> (slot * (d + p))) & mask
        r = lo + hi
        energy += r * r
    return energy


# ---------------------------------------------------------------------------
# subgroup closure oracle


def closure_oracle(space, gens):
    """The subgroup generated by gens: breadth-first search from the
    identity over every generator and every inverse at once, one tuple
    product at a time."""
    gens = set(gens) | {space.inv(g) for g in gens}
    seen = {space.identity()}
    frontier = list(seen)
    while frontier:
        fresh = []
        for x in frontier:
            for s in gens:
                y = space.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(seen)


def ball_oracle(space, gens, radius):
    """[B_1, ..., B_radius] with B_1 = S = gens u gens^-1 u {1} and
    B_r = S * B_{r-1}: every product formed at every radius, with no
    stop once a ball stops growing."""
    S = set(gens) | {space.inv(g) for g in gens} | {space.identity()}
    balls = [frozenset(S)]
    while len(balls) < radius:
        balls.append(frozenset(space.mul(s, x) for s in S for x in balls[-1]))
    return balls


def triple_oracle(space, members):
    """(A*A)*A with deduplication after each stage and no
    symmetrization: nested loops over the canonically sorted members,
    one tuple product at a time into a Python set."""
    mul = space.mul
    members = sorted(members)
    aa = set()
    for a in members:
        for b in members:
            aa.add(mul(a, b))
    aaa = set()
    for ab in aa:
        for c in members:
            aaa.add(mul(ab, c))
    return frozenset(aaa)


# ---------------------------------------------------------------------------
# trace-lab oracle


def dyadic_bins_oracle(space, t, members):
    """{jvec: frozenset of members}, the dyadic wealth bins built one
    element and one shift at a time: classify_oracle and char_poly of
    every t^k g, wealth tables as sets of invariants per trace."""
    n = space.n
    powers = space.power_list(t, n)
    kappa_tables = [dict() for _ in range(n + 1)]
    eligible = {}
    for g in members:
        all_ss = True
        traces = []
        for i in range(n + 1):
            shifted = space.mul(powers[i], g)
            tr = space.trace(shifted)
            traces.append(tr)
            if classify_oracle(space, shifted) is SemisimplicityClass.NOT_SEMISIMPLE:
                all_ss = False
            else:
                kappa_tables[i].setdefault(tr, set()).add(space.char_poly(shifted))
        if all_ss:
            eligible[g] = traces
    bins = {}
    for g, traces in eligible.items():
        jvec = tuple(
            len(kappa_tables[i][traces[i]]).bit_length() - 1 for i in range(n + 1)
        )
        bins.setdefault(jvec, set()).add(g)
    return {jvec: frozenset(b) for jvec, b in bins.items()}


def regular_semisimple(space, rng, max_tries=10_000):
    """The next regular semisimple g among repeated
    space.random_element(rng) draws, one candidate at a time; nothing
    past it is drawn."""
    for _ in range(max_tries):
        g = space.random_element(rng)
        if space.is_regular_semisimple(g):
            return g
    raise RuntimeError("no regular semisimple element found; tiny field?")


def split_regular_oracle(space, rng, max_tries=20_000):
    """(g, its sorted eigenvalues) for the next split regular g among
    repeated space.random_element(rng) draws, one candidate at a time."""
    for _ in range(max_tries):
        g = space.random_element(rng)
        eigs = space.split_eigenvalues(g)
        if eigs is not None:
            return g, eigs
    raise ValueError("no split regular element found; field too small?")


# ---------------------------------------------------------------------------
# omit-one determinants by exact elimination, and the per-trial suites


def power_matrix_rows(field, s, i):
    """Rows (s_j^k for k in [0..n] \\ {i}), one row per s_j."""
    n = len(s)
    if not 0 <= i <= n:
        raise ValueError(f"omitted power i={i} out of range for n={n}")
    p = field.p
    rows = []
    for v in s:
        v %= p
        powers = [1]
        for _ in range(n):
            powers.append((powers[-1] * v) % p)
        del powers[i]
        rows.append(powers)
    return rows


def generalized_vandermonde_det(field, s, i):
    """Determinant of the omit-power-i matrix, by exact elimination."""
    return linalg.det_mod(power_matrix_rows(field, s, i), field)


def verify_vander_identity(field, s, i):
    """Exact equality of the elimination determinant and the closed form
    vandermonde_product(s) * e_{n-i}(s)."""
    det = generalized_vandermonde_det(field, s, i)
    closed = (
        vandermonde_product(field, s)
        * elementary_symmetric(field, s, len(s) - i)
    ) % field.p
    return det == closed


def lindep_check_by_elimination(field, eigs):
    """One row of tracelab.lindep_checks: whether every omit-one subset
    of the forms is independent, by n+1 eliminations per witness."""
    return all(
        generalized_vandermonde_det(field, eigs, i) != 0
        for i in range(len(eigs) + 1)
    )


def vander_identity_suite_by_trial(n, p, trials, rng):
    """lemmas.vander_identity_suite, one elimination per trial."""
    fld = PrimeField(p)
    passes = 0
    for _ in range(trials):
        s = tuple(rng.randrange(p) for _ in range(n))
        i = rng.randrange(n + 1)
        if verify_vander_identity(fld, s, i):
            passes += 1
    return passes, trials


def lindep_suite_by_trial(n, p, trials, rng):
    """lemmas.lindep_suite, one witness at a time."""
    space = SpecialLinear(n, p)
    fld = space.field
    passes = 0
    for _, (_, eigs) in zip(range(trials), space.split_regulars(rng)):
        expected = all(
            elementary_symmetric(fld, eigs, m) != 0 for m in range(1, n)
        )
        if lindep_check_by_elimination(fld, eigs) == expected:
            passes += 1
    return passes, trials


def cyclic_nonvanishing_suite_by_trial(n, p, trials, rng):
    """lemmas.cyclic_nonvanishing_suite, one elimination per determinant."""
    fld = PrimeField(p)
    failures = 0
    evals = 0
    for _ in range(trials):
        head = [rng.randrange(1, p) for _ in range(n - 1)]
        prod = 1
        for v in head:
            prod = (prod * v) % p
        r = head + [fld.inv(prod)]
        for length in range(1, n):
            q = cyclic_product_coordinates(fld, r, length)
            for i in range(n + 1):
                evals += 1
                if generalized_vandermonde_det(fld, q, i) == 0:
                    failures += 1
    return failures, evals
