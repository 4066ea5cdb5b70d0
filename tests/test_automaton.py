import cmath
import io
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from kernelscope.automaton import (
    LATTICE_ZERO_TOL,
    LinearRepresentation,
    adjugate_poly,
    average_matrix,
    build_representation,
    eval_poly,
    evaluate,
    pole_lattice,
    rep_from_json,
    vector_values,
)
from kernelscope.errors import DomainError, VerdictError
from kernelscope.kernel import kernel_profile
from kernelscope.seqgen import FunctionId, ValueTable, write_rows


def identity_regular_rep():
    """Hand-built regular representation of n: U_n = (n, 1).

    U_{2n} = [[2,0],[0,1]] U_n and U_{2n+1} = [[2,1],[0,1]] U_n; the kernel
    spans rank 2, so the matrices carry general integers, not row picks.
    """
    return LinearRepresentation(
        k=2,
        dim=2,
        matrices=(
            np.array([[2, 0], [0, 1]], dtype=np.int64),
            np.array([[2, 1], [0, 1]], dtype=np.int64),
        ),
        seeds=np.array([[1, 1]], dtype=np.int64),
        output_coord=0,
        labels=((0, 0), (0, 0)),
        verified_to=0,
        growth=(1.0, 1.0),
    )


@pytest.fixture(scope="module")
def tm_rep(table):
    return build_representation(table("thue_morse_pm", N=2**14), 2, 6, 64)


@pytest.fixture(scope="module")
def const_rep(table):
    return build_representation(table("const_one", N=2**14), 2, 6, 64)


class TestBuild:
    def test_thue_morse_structure(self, tm_rep):
        assert tm_rep.dim == 2
        assert tm_rep.matrices[0].tolist() == [[1, 0], [0, 1]]
        assert tm_rep.matrices[1].tolist() == [[0, 1], [1, 0]]
        assert tm_rep.seeds.tolist() == [[-1, 1]]
        assert tm_rep.output_coord == 0
        assert tm_rep.labels[0] == (0, 0)

    def test_const_structure(self, const_rep):
        assert const_rep.dim == 1
        assert const_rep.matrices[0].tolist() == [[1]]
        assert const_rep.matrices[1].tolist() == [[1]]
        assert const_rep.seeds.tolist() == [[1]]

    def test_reduced_thue_morse_row_selection(self, table):
        # 0/1 digit-sum parity; all matrices must be pure row selections
        rep = build_representation(table("sum_binary_digits", mod=2, N=2**14), 2, 6, 64)
        assert rep.automatic
        assert rep.dim == 2

    def test_row_selection_property(self, tm_rep, const_rep):
        assert tm_rep.automatic
        assert const_rep.automatic

    def test_unsaturated_kernel_refused(self, table):
        with pytest.raises(VerdictError):
            build_representation(table("lambda", N=2**14), 2, 6, 64)

    def test_window_capped_kernel_refused(self, table):
        # lambda's width-2 windows stall at 2^2 = 4 forms; that is no automaton
        with pytest.raises(VerdictError, match="window_capped"):
            build_representation(table("lambda", N=2**14), 2, 6, 2)

    def test_window_below_the_seeds_refused(self, table):
        with pytest.raises(DomainError, match=r"^window must cover the seeds: need M >= k = 3$"):
            build_representation(table("const_one", N=2**14), 3, 5, 2)

    def test_base_below_two_refused(self):
        # at k = 1 evaluate's digit peeling would never end; every other
        # field here is consistent, so the refusal names 'k' alone
        with pytest.raises(DomainError, match=r"^field 'k' out of range: need k >= 2, got 1$"):
            LinearRepresentation(
                k=1, dim=1, matrices=(np.ones((1, 1), dtype=np.int64),),
                seeds=np.zeros((0, 1), dtype=np.int64), output_coord=0,
                labels=((0, 0),), verified_to=0, growth=(1.0, 0.0))

    def test_verified_bound_recorded(self, tm_rep):
        assert tm_rep.verified_to == 128


def automaton_values(delta, out, k, N):
    """t(0..N) of the automaton read least significant digit first from
    state 0: each n's base-k digits are fed in turn, then out[state]."""
    delta = np.array(delta)
    state = np.zeros(N + 1, dtype=np.int64)
    m = np.arange(N + 1)
    while m.any():
        live = m > 0
        state[live] = delta[state[live], m[live] % k]
        m //= k
    return np.array(out, dtype=np.int64)[state]


def rises_after_a_flat_step(counts) -> bool:
    steps = np.diff(counts)
    flat = np.flatnonzero(steps == 0)
    return bool(flat.size and steps[flat[0] :].any())


class TestWholeTable:
    """A saturated build agrees with its whole table, not only the window.

    For an automaton with s states, two states that differ on some n >= 1
    differ on some n < k^(s-1), so windows of width M >= k^s - 1 tell
    every pair apart (M = k^s also covers the seeds).  Then the distinct
    counts rise until one depth adds nothing and stay flat from there (the
    classes reached are closed under the transitions), they are flat by
    depth s - 1, and L >= s + 1 makes the profile saturated with dim <= s.
    """

    @pytest.mark.parametrize("k, s_max", [(2, 6), (3, 4)])
    def test_random_automata(self, k, s_max):
        rng = random.Random(20 + k)
        for case in range(100):
            s = rng.randint(2, s_max)
            delta = [[rng.randrange(s) for _ in range(k)] for _ in range(s)]
            out = [rng.choice((-1, 0, 1, 2)) for _ in range(s)]
            L, M = s + 1, k**s
            N = k**L * (M + 1)
            t = ValueTable(FunctionId("identity_n"), N, automaton_values(delta, out, k, N))
            where = f"case {case}: delta={delta} out={out}"
            prof = kernel_profile(t, k, L, M)
            assert prof.verdict.kind == "saturated", (where, prof.distinct_counts)
            assert not rises_after_a_flat_step(prof.distinct_counts), where
            rep = build_representation(t, k, L, M)
            assert rep.dim <= s, where
            assert np.array_equal(vector_values(rep, N)[1:, rep.output_coord],
                                  t.values[1:]), where

    @pytest.mark.parametrize("tag, k, mod", [
        ("thue_morse_pm", 2, None),
        ("const_one", 2, None),
        ("const_one", 3, None),
        ("sum_binary_digits", 2, 3),
        ("identity_n", 2, 3),
    ])
    def test_fixtures(self, table, tag, k, mod):
        t = table(tag, N=2**16, mod=mod)
        assert not rises_after_a_flat_step(kernel_profile(t, k, 6, 64).distinct_counts)
        rep = build_representation(t, k, 6, 64)
        assert np.array_equal(vector_values(rep, t.N)[1:, rep.output_coord], t.values[1:])


class TestEvaluate:
    def test_const(self, const_rep):
        assert evaluate(const_rep, 997) == 1

    def test_thue_morse_small(self, tm_rep):
        assert evaluate(tm_rep, 3) == 1  # two binary ones

    def test_thue_morse_against_digit_sum(self, tm_rep):
        for n in list(range(1, 2048)) + [2**20 + 1, 2**20 + 12345]:
            assert evaluate(tm_rep, n) == (-1) ** bin(n).count("1")

    def test_round_trip_on_table(self, table, tm_rep):
        t = table("thue_morse_pm", N=2**14)
        for n in range(1, 10**4):
            assert evaluate(tm_rep, n) == int(t.values[n])

    def test_rejects_zero(self, tm_rep):
        with pytest.raises(DomainError):
            evaluate(tm_rep, 0)


class TestVectorValues:
    def test_matches_digit_peeling(self, table, tm_rep):
        const3 = build_representation(table("const_one", N=2**14), 3, 5, 32)
        for rep in (tm_rep, const3, identity_regular_rep()):
            # lengths on, just below and just above digit-length boundaries
            for N in (1, 2, 3, 8, 9, 10, 26, 27, 28, 1000):
                u = vector_values(rep, N)
                assert u.shape == (N + 1, rep.dim)
                got = u[1:, rep.output_coord].tolist()
                assert got == [evaluate(rep, n) for n in range(1, N + 1)], N

    def test_float_when_int64_could_wrap(self):
        # a growth bound C N^d past int64 switches to rounding floats
        rep = identity_regular_rep()
        assert vector_values(rep, 2**16).dtype == np.int64
        steep = replace(rep, growth=(1.0, 4.0))
        u = vector_values(steep, 2**16)
        assert u.dtype == np.float64
        assert np.array_equal(u[1:, 0], np.arange(1, 2**16 + 1))


class TestAverageMatrix:
    def test_const(self, const_rep):
        assert average_matrix(const_rep) == [[Fraction(1)]]

    def test_thue_morse(self, tm_rep):
        assert average_matrix(tm_rep) == [
            [Fraction(1, 2), Fraction(1, 2)],
            [Fraction(1, 2), Fraction(1, 2)],
        ]

    def test_row_stochastic(self, table, tm_rep, const_rep):
        reps = [tm_rep, const_rep,
                build_representation(table("sum_binary_digits", mod=2, N=2**14), 2, 6, 64)]
        for rep in reps:
            for row in average_matrix(rep):
                assert sum(row) == 1

    def test_eigenvalue_one_certified_exactly(self, tm_rep):
        coeffs = adjugate_poly(average_matrix(tm_rep))[0]
        assert coeffs == [Fraction(0), Fraction(-1), Fraction(1)]  # x^2 - x
        assert eval_poly(coeffs, Fraction(1)) == 0


def _exact_det(mat):
    """Determinant over Q by plain Fraction elimination (independent of
    the Faddeev-LeVerrier recursion)."""
    rows = [row[:] for row in mat]
    n, det = len(rows), Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, n):
            f = rows[i][col] / rows[col][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return det


def _mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


class TestAdjugatePolynomial:
    @pytest.mark.parametrize("tag, mod", [
        ("thue_morse_pm", None), ("sum_binary_digits", 3), ("identity_n", 3)])
    def test_adjugate_times_matrix_is_det(self, table, tag, mod):
        # (xI - A) sum_j M_j x^{d-j} = det(xI - A) I, coefficient by coefficient
        rep = build_representation(table(tag, mod=mod, N=2**14), 2, 6, 64)
        a = average_matrix(rep)
        coeffs, adj = adjugate_poly(a)
        d = rep.dim
        assert d >= 2 and len(coeffs) == d + 1 and len(adj) == d
        eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        neg_a = [[-x for x in row] for row in a]
        lhs = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d + 1)]
        for j, m in enumerate(adj, 1):  # M_j multiplies x^{d-j}
            for power, factor in ((d - j + 1, eye), (d - j, neg_a)):
                prod = _mat_mul(factor, m)
                lhs[power] = [[u + v for u, v in zip(r1, r2)] for r1, r2 in zip(lhs[power], prod)]
        for power in range(d + 1):
            assert lhs[power] == [[coeffs[power] * x for x in row] for row in eye], power

    @pytest.mark.parametrize("tag, mod", [
        ("thue_morse_pm", None), ("sum_binary_digits", 3), ("identity_n", 3)])
    def test_char_poly_is_the_determinant(self, table, tag, mod):
        # a monic degree-d polynomial is fixed by its values at d + 1 points
        rep = build_representation(table(tag, mod=mod, N=2**14), 2, 6, 64)
        a = average_matrix(rep)
        coeffs = adjugate_poly(a)[0]
        assert coeffs[-1] == 1
        for x in range(-1, rep.dim + 1):
            shifted = [[Fraction(x) * (i == j) - a[i][j] for j in range(rep.dim)]
                       for i in range(rep.dim)]
            assert eval_poly(coeffs, Fraction(x)) == _exact_det(shifted)

    def test_dim_one(self, const_rep):
        assert adjugate_poly(average_matrix(const_rep)) == (
            [Fraction(-1), Fraction(1)], [[[Fraction(1)]]])


class TestPoleLattice:
    def test_const_contains_one(self, const_rep):
        lat = pole_lattice(const_rep, 2, 2)
        assert lat.contains(1.0, tol=1e-15)
        assert lat.contains(0.0, tol=1e-15)  # l = 1 tower
        assert lat.contains(1 + 2j * math.pi / math.log(2), tol=1e-9)

    def test_thue_morse_zero_skipped(self, tm_rep):
        lat = pole_lattice(tm_rep, 2, 1)
        assert len(lat.skipped) == 1
        contributing = {p.alpha_index for p in lat.points}
        assert lat.skipped[0] not in contributing

    def test_tower_spacing_exact(self, const_rep):
        lat = pole_lattice(const_rep, 3, 0)
        tower = sorted(
            (p.s for p in lat.points if p.alpha_index == 0 and p.l == 0),
            key=lambda z: z.imag,
        )
        spacing = 2 * math.pi / math.log(2)
        for a, b in zip(tower, tower[1:]):
            assert abs((b - a) - 1j * spacing) < 1e-12

    def test_in_rectangle(self, const_rep):
        lat = pole_lattice(const_rep, 3, 1)
        box = lat.in_rectangle(0.9, 1.1, 10)
        assert len(box) == 2  # s = 1 and s = 1 + 9.0647i
        box_small = lat.in_rectangle(0.9, 1.1, 5)
        assert len(box_small) == 1

    def test_negative_bounds_refused(self, const_rep):
        with pytest.raises(DomainError, match="^m_max and l_max must be >= 0$"):
            pole_lattice(const_rep, -1, 0)

    def test_csv_export(self, const_rep, tmp_path):
        lat = pole_lattice(const_rep, 1, 1)
        p = tmp_path / "lat.csv"
        with open(p, "w") as fh:
            lat.write_csv(fh)
        header, *rows = p.read_text().strip().splitlines()
        assert header == "re,im,alpha_index,m,l"
        assert len(rows) == len(lat.points)



def _reference_lattice(lat):
    """(s, alpha_index, m, l) of every lattice point by the plain loop over
    (alpha, m, l), from the lattice's own eigenvalues and bounds."""
    logk = math.log(lat.k)
    out = []
    for idx, alpha in enumerate(lat.eigenvalues):
        if abs(alpha) <= LATTICE_ZERO_TOL:
            continue
        base = cmath.log(alpha) / logk + 1
        for m in range(-lat.m_max, lat.m_max + 1):
            for l in range(lat.l_max + 1):
                out.append((base + (2j * math.pi / logk) * m - l, idx, m, l))
    return out


def _bits(zs):
    return np.array(zs, dtype=np.complex128).view(np.uint64).tolist()


class TestLatticeColumns:
    # the five automatic_scan fixtures, identity_n mod 7 (dim 21) and
    # thue_morse_pm at a smaller table, whose zero eigenvalue is skipped
    FIXTURES = [("thue_morse_pm", 2, None, 6, 64, 2**16), ("const_one", 2, None, 6, 64, 2**16),
                ("const_one", 3, None, 6, 64, 2**16), ("sum_binary_digits", 2, 3, 6, 64, 2**16),
                ("identity_n", 2, 3, 6, 64, 2**16), ("identity_n", 2, 7, 8, 128, 2**16),
                ("thue_morse_pm", 2, None, 6, 64, 2**14)]
    RECTANGLES = [(0.86, 1.16, 10), (1.0, 1.0, 20), (-2.0, 1.5, 0), (5.0, 6.0, 10)]

    @pytest.fixture(scope="class", params=FIXTURES, ids=lambda f: f"{f[0]}-k{f[1]}-mod{f[2]}")
    def lattice(self, request, table):
        tag, k, mod, L, M, N = request.param
        return pole_lattice(build_representation(table(tag, mod=mod, N=N), k, L, M), 4, 3)

    def test_records_equal_the_loop(self, lattice):
        ref = _reference_lattice(lattice)
        p = lattice.points
        assert len(p) == len(ref)
        assert _bits(p.s) == _bits([r[0] for r in ref])
        assert list(zip(p.alpha_index.tolist(), p.m.tolist(), p.l.tolist())) == [
            r[1:] for r in ref]
        assert not set(lattice.skipped) & set(p.alpha_index.tolist())

    @pytest.mark.parametrize("a, b, T", RECTANGLES)
    def test_in_rectangle_equals_the_comprehension(self, lattice, a, b, T):
        eps = 1e-12
        want = [r for r in _reference_lattice(lattice)
                if a - eps <= r[0].real <= b + eps and -eps <= r[0].imag <= T + eps]
        box = lattice.in_rectangle(a, b, T)
        assert _bits(box.s) == _bits([r[0] for r in want])
        assert box.alpha_index.tolist() == [r[1] for r in want]

    def test_contains_equals_the_comprehension(self, lattice):
        ref = [r[0] for r in _reference_lattice(lattice)]
        for z in [ref[0], ref[-1] + 1e-10, 1.0, 0.5 + 3j, 40 + 0j]:
            for tol in (0.0, 1e-9, 0.3):
                assert lattice.contains(z, tol) == any(abs(w - z) <= tol for w in ref), (z, tol)

    def test_empty_rectangle(self, lattice):
        box = lattice.in_rectangle(5.0, 6.0, 10)
        assert len(box) == 0 and box.dtype == lattice.points.dtype


def test_readme_lattice_json_and_csv_equal_the_loop(table):
    # the README pole-lattice line: const_one, N 4096, k 2, L 5, M 32, --m-max 3 --l-max 2
    lat = pole_lattice(build_representation(table("const_one", N=4096), 2, 5, 32), 3, 2)
    rows = [(s.real, s.imag, i, m, l) for s, i, m, l in _reference_lattice(lat)]
    header = ["re", "im", "alpha_index", "m", "l"]
    points = lat.to_json()["points"]
    assert points == [dict(zip(header, r)) for r in rows]
    # Python floats and ints, as the loop's, not numpy scalars
    assert [tuple(map(type, p.values())) for p in points] == [(float, float, int, int, int)] * 21
    got, want = io.StringIO(), io.StringIO()
    lat.write_csv(got)
    write_rows(want, header, rows)
    assert got.getvalue() == want.getvalue()


class TestRegularRepresentation:
    def test_eval_reproduces_n(self):
        rep = identity_regular_rep()
        for n in (1, 2, 3, 27, 1000, 2**20 + 17):
            assert evaluate(rep, n) == n

    @pytest.mark.parametrize("n", [2**63 + 5, 10**20, 2**70 + 3])
    def test_eval_exact_past_int64(self, n):
        # int64 products would wrap: 2^63 + 5 came back as -2^63 + 5
        assert evaluate(identity_regular_rep(), n) == n

    def test_not_row_selection(self):
        rep = identity_regular_rep()
        assert not rep.automatic

    def test_eigenvalue_towers_at_two_and_one(self):
        # Dirichlet vector is (zeta(s-1), zeta(s)): towers at Re 2 and 1
        rep = identity_regular_rep()
        lat = pole_lattice(rep, 1, 0)
        assert lat.contains(2.0, tol=1e-12)
        assert lat.contains(1.0, tol=1e-12)
        assert sorted(z.real for z in lat.eigenvalues) == [1.0, 2.0]


class TestSerialization:
    def test_round_trip(self, tm_rep, tmp_path):
        doc = json.loads(json.dumps(tm_rep.to_json()))
        back = rep_from_json(doc)
        assert back.dim == tm_rep.dim
        assert back.labels == tm_rep.labels
        assert all(
            np.array_equal(a, b) for a, b in zip(back.matrices, tm_rep.matrices)
        )
        assert np.array_equal(back.seeds, tm_rep.seeds)
        for n in (1, 2, 3, 1000, 54321):
            assert evaluate(back, n) == evaluate(tm_rep, n)

    def test_json_fields(self, const_rep):
        doc = const_rep.to_json()
        assert doc["k"] == 2 and doc["t"] == 1
        assert doc["matrices"] == [[1], [1]]
        assert doc["verified_to"] == const_rep.verified_to
