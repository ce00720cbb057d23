import pytest

from corpus import LINE, PLANE, POINT, abelian, two_dim_algebra

from algebroids.algebroid import (AlgebroidSpec, check_algebroid,
                                  hamiltonian_of_algebroid, schouten_bracket)
from algebroids.bialgebroid import (assemble_hamiltonian, check_bialgebroid,
                                    check_linfty)
from algebroids.constructions import (NijenhuisData, action_algebroid,
                                      linfty_bialgebra, nijenhuis_check,
                                      poisson_bialgebroid, tangent_algebroid,
                                      triangular)
from algebroids.errors import (AlgebroidsError, DegreeError, NotLieAlgebra,
                               NotPoisson, NotTriangular)
from algebroids.expr import parse_expression as pe
from algebroids.gpoly import Chart, MOMENTUM_KINDS


class TestTangent:
    def test_line_hamiltonian(self):
        spec = tangent_algebroid(LINE)
        mu = hamiltonian_of_algebroid(spec)
        assert mu.body == pe("dx * x*", mu.chart.chart)

    def test_plane_hamiltonian(self):
        spec = tangent_algebroid(PLANE)
        mu = hamiltonian_of_algebroid(spec)
        assert mu.body == pe("dx1 * x1* + dx2 * x2*", mu.chart.chart)

    def test_passes_checks(self):
        assert check_algebroid(tangent_algebroid(PLANE)).passed


class TestAction:
    def test_two_dim_action_passes(self):
        spec = action_algebroid(LINE, [("xi1", 0), ("xi2", 0)],
                                {("xi1", "xi2", "xi1"): 1},
                                {("xi1", "x"): 1, ("xi2", "x"): "x"})
        assert check_algebroid(spec).passed

    def test_trivial_action_is_family(self):
        spec = action_algebroid(LINE, [("xi1", 0), ("xi2", 0), ("xi3", 0)],
                                {("xi1", "xi2", "xi3"): 1}, {})
        assert all(p.is_zero() for row in spec.anchor for p in row)
        assert check_algebroid(spec).passed

    def test_swapped_action_fails_downstream(self):
        spec = action_algebroid(LINE, [("xi1", 0), ("xi2", 0)],
                                {("xi1", "xi2", "xi1"): 1},
                                {("xi1", "x"): "x", ("xi2", "x"): 1})
        assert not check_algebroid(spec).passed

    def test_bad_constants_rejected(self):
        with pytest.raises(NotLieAlgebra):
            action_algebroid(LINE, [("xi1", 0), ("xi2", 0), ("xi3", 0)],
                             {("xi1", "xi2", "xi1"): 1,
                              ("xi1", "xi3", "xi2"): 1}, {})


class TestPoissonBialgebroid:
    def test_linear_bivector_full_stack(self):
        b, chi = poisson_bialgebroid(PLANE, {(0, 1): "x1"})
        assert check_linfty(chi).passed
        assert check_bialgebroid(b).passed

    def test_zero_bivector(self):
        b, chi = poisson_bialgebroid(PLANE, {})
        assert chi.body == pe("x1* * xi1* + x2* * xi2*", b.chart.chart)
        assert check_linfty(chi).passed

    def test_constant_bivector_round_trip(self):
        b, chi = poisson_bialgebroid(PLANE, {(0, 1): 1})
        assert check_linfty(chi).passed
        assert _bivector_from_hamiltonian(b) == {(0, 1): PLANE.const(1)}

    def test_linear_round_trip(self):
        b, _ = poisson_bialgebroid(PLANE, {(0, 1): "x1"})
        assert _bivector_from_hamiltonian(b) == {(0, 1): pe("x1", PLANE)}

    def test_not_poisson_rejected(self):
        base = Chart([("x1", 0), ("x2", 0), ("x3", 0)])
        with pytest.raises(NotPoisson):
            poisson_bialgebroid(base, {(0, 1): "x2", (1, 2): "x1"})


def _bivector_from_hamiltonian(b):
    """Read the anchor component of chi back into bivector entries: the
    coefficient of xi^a x*_i is the (i, a) entry."""
    chi = assemble_hamiltonian(b)
    chart = b.chart.chart
    base = b.primal.base
    n = len(base.vars)
    out = {}
    for i in range(n):
        for a in range(n):
            if a <= i:
                continue
            word = [0] * len(chart.vars)
            word[chart.index_of(b.primal.fiber_names[a])] = 1
            word[chart.index_of(base.names[i] + "*")] = 1
            entries = {}
            for m, c in chi.body.terms.items():
                key = tuple(x - y for x, y in zip(chart.unpack(m), word))
                if all(e >= 0 for e in key) and \
                        all(e == 0 for j, e in enumerate(key)
                            if chart.kinds[j] != "base"):
                    entries[tuple(e for j, e in enumerate(key)
                                  if chart.kinds[j] == "base")] = c
            if entries:
                from algebroids.gpoly import GPoly
                poly = GPoly(base, {base.pack(k): v
                                    for k, v in entries.items()})
                out[(i, a)] = poly
    return out


class TestTriangular:
    def test_two_dim_example(self):
        spec = two_dim_algebra()
        mv = spec.multivector_chart()
        lham = triangular(spec, pe("xi1* * xi2*", mv))
        assert check_linfty(lham).passed
        assert lham.body.kind_weights(MOMENTUM_KINDS) == frozenset({1, 2})
        # the half of the structure with the nontrivial cobracket component
        delta = schouten_bracket(spec, pe("xi1* * xi2*", mv),
                                 mv.var_poly("xi2*"))
        assert delta == pe("-xi1* * xi2*", mv)
        assert schouten_bracket(spec, pe("xi1* * xi2*", mv),
                                mv.var_poly("xi1*")).is_zero()

    def test_abelian_control(self):
        spec = abelian()
        lham = triangular(spec, pe("xi1* * xi2*", spec.multivector_chart()))
        assert lham.body.is_zero()
        assert check_linfty(lham).passed

    def test_not_triangular_rejected(self):
        # r = e1 ^ e2 in the Heisenberg algebra has [r, r] != 0
        spec = AlgebroidSpec(POINT, [("xi1", 0), ("xi2", 0), ("xi3", 0)], {},
                             {("xi1", "xi2", "xi3"): 1})
        with pytest.raises(NotTriangular):
            triangular(spec, pe("xi1* * xi2*", spec.multivector_chart()))

    def test_heisenberg_plus_line_central_element(self):
        spec = AlgebroidSpec(POINT,
                             [("xi1", 0), ("xi2", 0), ("xi3", 0), ("xi4", 0)],
                             {}, {("xi1", "xi2", "xi3"): 1})
        lham = triangular(spec, pe("xi1* * xi4*", spec.multivector_chart()))
        assert check_linfty(lham).passed
        assert lham.body.kind_weights(MOMENTUM_KINDS) == frozenset({1, 2})


class TestNijenhuis:
    def test_identity_endomorphism(self):
        data = NijenhuisData(PLANE, {(0, 0): 1, (1, 1): 1}, {(0, 1): "x1"})
        assert nijenhuis_check(data).passed

    def test_distinct_eigenvalues_fail_compatibility(self):
        data = NijenhuisData(PLANE, {(0, 0): 2, (1, 1): 3}, {(0, 1): 1})
        report = nijenhuis_check(data)
        assert not report.passed
        torsion_records = [r for r in report.records
                           if r.name.startswith("torsion")]
        assert all(r.passed for r in torsion_records)
        endo_records = [r for r in report.records
                        if r.name.startswith("endo-bivector")]
        assert any(not r.passed for r in endo_records)

    def test_scalar_multiple_passes(self):
        data = NijenhuisData(PLANE, {(0, 0): 2, (1, 1): 2}, {(0, 1): "x1"})
        assert nijenhuis_check(data).passed

    def test_not_poisson_rejected(self):
        base = Chart([("x1", 0), ("x2", 0), ("x3", 0)])
        with pytest.raises(NotPoisson):
            nijenhuis_check(NijenhuisData(
                base, {(0, 0): 1}, {(0, 1): "x2", (1, 2): "x1"}))

    def test_nonlinear_endomorphism_torsion(self):
        # N = diag(x2, 0) has nonvanishing torsion against the second slot
        data = NijenhuisData(PLANE, {(0, 0): "x2"}, {})
        report = nijenhuis_check(data)
        torsion_records = [r for r in report.records
                           if r.name.startswith("torsion")]
        assert any(not r.passed for r in torsion_records)


class TestLinftyBialgebra:
    def test_bracket_component_only(self):
        sc_chart = _point_chart()
        lham = linfty_bialgebra([("xi1", 0), ("xi2", 0)],
                                {(2, 1): "-xi1 * xi2 * xi1*"})
        assert check_linfty(lham).passed

    def test_bracket_and_cobracket(self):
        lham = linfty_bialgebra([("xi1", 0), ("xi2", 0)],
                                {(2, 1): "-xi1 * xi2 * xi1*",
                                 (1, 2): "-xi2 * xi1* * xi2*"})
        assert check_linfty(lham).passed

    def test_degree_minus_one_generator_component(self):
        # a generator of section degree -1 gives an even fiber coordinate of
        # degree 2 and an even momentum of degree 0; a (2,2) component in the
        # even momentum squares legitimately
        lham = linfty_bialgebra(
            [("a", 0), ("b", -1)],
            {(2, 1): "-a * b * b*", (2, 2): "a * b * b*^2"})
        report = check_linfty(lham)
        degree_rec = next(r for r in report.records if r.name == "degree-three")
        assert degree_rec.passed

    def test_component_bidegree_validated(self):
        with pytest.raises(DegreeError):
            linfty_bialgebra([("xi1", 0), ("xi2", 0)],
                             {(2, 1): "-xi2 * xi1* * xi2*"})
        with pytest.raises(DegreeError):
            linfty_bialgebra([("xi1", 0), ("xi2", 0)],
                             {(0, 1): "xi1*"})


def _point_chart():
    return Chart([("xi1", 1, "fiber"), ("xi2", 1, "fiber")])


class TestCatalogInvariant:
    def test_every_catalog_output_verifies(self):
        assert check_algebroid(tangent_algebroid(PLANE)).passed
        assert check_algebroid(action_algebroid(
            LINE, [("xi1", 0), ("xi2", 0)], {("xi1", "xi2", "xi1"): 1},
            {("xi1", "x"): 1, ("xi2", "x"): "x"})).passed
        b, chi = poisson_bialgebroid(PLANE, {(0, 1): "x1"})
        assert check_bialgebroid(b).passed and check_linfty(chi).passed
        spec = two_dim_algebra()
        assert check_linfty(triangular(
            spec, pe("xi1* * xi2*", spec.multivector_chart()))).passed
        assert nijenhuis_check(NijenhuisData(
            PLANE, {(0, 0): 1, (1, 1): 1}, {(0, 1): "x1"})).passed
        assert check_linfty(linfty_bialgebra(
            [("xi1", 0), ("xi2", 0)],
            {(2, 1): "-xi1 * xi2 * xi1*",
             (1, 2): "-xi2 * xi1* * xi2*"})).passed
