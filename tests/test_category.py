import warnings

import numpy as np
import pytest

from bimonetary.category import (
    Affine,
    Diagram,
    EconObject,
    Functor,
    MorphismSpec,
    Ratio,
    RiskDiscount,
    ScaleBySeries,
    apply_functor,
    check_commutes,
    check_functor_laws,
    compose,
    evaluate,
    functor_from_json,
    identity,
)
from bimonetary.errors import (
    DivisionByZero,
    IncompatibleEndpoints,
    InputError,
    NonFiniteValue,
    UnknownVariable,
    UnmappedMorphism,
    UnmappedObject,
)
from bimonetary.panel import Panel, Series
from bimonetary.typed_json import dump, parse
from tests.conftest import SEED, daily_dates, functor_document

L_ARS = EconObject("L_ARS", "peso demand")
L_USD = EconObject("L_USD", "dollar demand")
R = EconObject("R", "relative demand")
Y = EconObject("Y", "real income")


def small_panel(**columns):
    n = len(next(iter(columns.values())))
    return Panel(
        daily_dates(n), {k: Series(v) for k, v in columns.items()}
    )


class TestCompose:
    def test_affine_canonical_form(self):
        f = MorphismSpec(Affine(2, 1), "Y", "L_ARS")
        g = MorphismSpec(Affine(3, 0), "L_ARS", "R")
        out = compose(f, g)
        assert out.kind == Affine(6.0, 3.0)
        assert out.source == "Y" and out.target == "R"

    def test_identity_left_and_right(self):
        f = MorphismSpec(RiskDiscount("rho"), "L_ARS", "L_USD")
        assert compose(identity("L_ARS"), f) == f
        assert compose(f, identity("L_USD")) == f

    def test_incompatible_endpoints(self):
        f = MorphismSpec(Affine(1, 0), "Y", "L_ARS")
        g = MorphismSpec(Affine(1, 0), "R", "Y")
        with pytest.raises(IncompatibleEndpoints):
            compose(f, g)

    def test_chain_flattening_is_associative(self):
        f = MorphismSpec(Affine(2, 0), "Y", "L_ARS")
        g = MorphismSpec(RiskDiscount("rho"), "L_ARS", "L_USD")
        h = MorphismSpec(Affine(0.5, 1), "L_USD", "R")
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        assert left == right


class TestEvaluate:
    def test_identity_returns_column(self):
        panel = small_panel(Y=[1.0, 2.0, 3.0])
        assert evaluate(identity("Y"), panel).values == (1.0, 2.0, 3.0)

    def test_ratio(self):
        panel = small_panel(L_ARS=[4.0], L_USD=[2.0])
        m = MorphismSpec(Ratio("L_ARS", "L_USD"), "L_ARS", "R")
        assert evaluate(m, panel).values == (2.0,)

    def test_risk_discount_zero_premium(self):
        panel = small_panel(L_ARS=[10.0, 20.0], rho=[0.0, 0.0])
        m = MorphismSpec(RiskDiscount("rho"), "L_ARS", "L_USD")
        assert evaluate(m, panel).values == (10.0, 20.0)

    def test_risk_discount_quarter_premium(self):
        # 100 held at a 25% peso premium is worth 80 in dollars
        panel = small_panel(L_ARS=[100.0], rho=[0.25])
        m = MorphismSpec(RiskDiscount("rho"), "L_ARS", "L_USD")
        assert evaluate(m, panel).values == (80.0,)

    def test_scale_by_series(self):
        panel = small_panel(Y=[2.0, 3.0], s=[10.0, 10.0])
        m = MorphismSpec(ScaleBySeries("s"), "Y", "Y")
        assert evaluate(m, panel).values == (20.0, 30.0)

    def test_division_by_zero_carries_date(self):
        panel = small_panel(L_ARS=[1.0, 1.0], L_USD=[1.0, 0.0])
        m = MorphismSpec(Ratio("L_ARS", "L_USD"), "L_ARS", "R")
        with pytest.raises(DivisionByZero) as info:
            evaluate(m, panel)
        assert info.value.date == panel.dates[1]

    def test_unknown_variable(self):
        panel = small_panel(Y=[1.0])
        m = MorphismSpec(ScaleBySeries("absent"), "Y", "Y")
        with pytest.raises(UnknownVariable):
            evaluate(m, panel)

    def test_missing_propagates(self):
        panel = Panel(daily_dates(2), {"Y": Series([1.0, None])})
        out = evaluate(MorphismSpec(Affine(2, 0), "Y", "Y"), panel)
        assert out.values == (2.0, None)

    @pytest.mark.parametrize(
        "m",
        [
            MorphismSpec(Affine(1e10, 0), "Y", "Y"),
            MorphismSpec(ScaleBySeries("s"), "Y", "Y"),
            MorphismSpec(Ratio("Y", "tiny"), "Y", "R"),
        ],
        ids=["affine", "scale_by_series", "ratio"],
    )
    def test_overflow_is_one_numerical_error_at_its_date(self, m):
        panel = small_panel(
            Y=[1.0, 1e300, 2.0], s=[1.0, 1e10, 1.0], tiny=[1.0, 1e-10, 1.0]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as info:
                evaluate(m, panel)
        assert info.value.date == panel.dates[1]

    def test_a_missing_column_is_no_overflow(self):
        # the scale column is missing where the input overflows it; the
        # next date has every column present and overflows
        panel = small_panel(Y=[None, 1e300, 1e300], s=[1e300, None, 1e300])
        m = MorphismSpec(ScaleBySeries("s"), "Y", "Y")
        with pytest.raises(NonFiniteValue) as info:
            evaluate(m, panel)
        assert info.value.date == panel.dates[2]
        first_two = panel.restrict_dates(None, panel.dates[1])
        assert evaluate(m, first_two).values == (None, None)


class TestCheckCommutes:
    def test_path_against_composed_edge(self):
        panel = small_panel(Y=[1.0, 2.0], L_ARS=[0.0, 0.0], R=[0.0, 0.0])
        f = MorphismSpec(Affine(2, 1), "Y", "L_ARS")
        g = MorphismSpec(Affine(3, 0), "L_ARS", "R")
        d = Diagram(
            (Y, L_ARS, R),
            (f, g),
            (((f, g), (compose(f, g),)),),
        )
        report = check_commutes(d, panel, tol=0.0)
        assert report.passed
        assert max(c.deviation for c in report.checks) == 0.0

    def test_equilibrium_condition_passes_on_balanced_data(self):
        # both inflation-scaled demands produce the same flow by construction
        pi_ars, pi_usd = [0.5, 0.6], [0.25, 0.3]
        l_ars, l_usd = [2.0, 3.0], [4.0, 6.0]
        panel = small_panel(
            L_ARS=l_ars, L_USD=l_usd, pi_ars=pi_ars, pi_usd=pi_usd
        )
        flow = EconObject("flow")
        left = MorphismSpec(ScaleBySeries("pi_ars"), "L_ARS", "flow")
        right = MorphismSpec(ScaleBySeries("pi_usd"), "L_USD", "flow")
        d = Diagram((L_ARS, L_USD, flow), (left, right), (((left,), (right,)),))
        assert check_commutes(d, panel, tol=1e-12).passed

    def test_perturbation_fails_with_reported_deviation(self):
        tol = 1e-6
        bump = 10 * tol
        panel = small_panel(
            L_ARS=[2.0, 3.0],
            L_USD=[2.0, 3.0 + bump],
        )
        flow = EconObject("flow")
        left = MorphismSpec(Affine(1, 0), "L_ARS", "flow")
        right = MorphismSpec(Affine(1, 0), "L_USD", "flow")
        d = Diagram((L_ARS, L_USD, flow), (left, right), (((left,), (right,)),))
        report = check_commutes(d, panel, tol=tol)
        assert not report.passed
        assert max(c.deviation for c in report.checks) == pytest.approx(bump, rel=1e-9)

    def test_monotone_in_tolerance(self):
        panel = small_panel(L_ARS=[1.0], L_USD=[1.0 + 5e-7])
        flow = EconObject("flow")
        left = MorphismSpec(Affine(1, 0), "L_ARS", "flow")
        right = MorphismSpec(Affine(1, 0), "L_USD", "flow")
        d = Diagram((L_ARS, L_USD, flow), (left, right), (((left,), (right,)),))
        passed = [
            check_commutes(d, panel, tol).passed
            for tol in (1e-8, 1e-6, 1e-4, 1e-2)
        ]
        assert passed == sorted(passed)  # once passing, stays passing

    def test_value_against_a_missing_value_fails_with_no_deviation(self):
        # 0 * Y + 1 is missing where Y is; one / one is not
        panel = small_panel(Y=[1.0, None], one=[1.0, 1.0])
        left = MorphismSpec(Affine(0, 1), "Y", "R")
        right = MorphismSpec(Ratio("one", "one"), "Y", "R")
        d = Diagram((Y, R), (left, right), (((left,), (right,)),))
        (check,) = check_commutes(d, panel, tol=1.0).checks
        assert (check.deviation, check.passed) == (None, False)

    def test_overflowing_deviation_is_one_numerical_error_at_its_date(self):
        # Y and -Y are finite; their difference on the second date is not
        panel = small_panel(Y=[1.0, 1e308, 2.0])
        same = MorphismSpec(Affine(1, 0), "Y", "R")
        negated = MorphismSpec(Affine(-1, 0), "Y", "R")
        d = Diagram((Y, R), (same, negated), (((same,), (negated,)),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue) as info:
                check_commutes(d, panel)
        assert info.value.date == panel.dates[1]


def rename_functor():
    primes = {
        obj.id: EconObject(obj.id + "'", obj.description)
        for obj in (Y, L_ARS, L_USD, R)
    }
    return Functor("prime", primes), primes


class TestFunctor:
    def test_identity_functor_preserves_diagram(self):
        f = MorphismSpec(Affine(2, 1), "Y", "L_ARS")
        ident = Functor(
            "id", {o.id: o for o in (Y, L_ARS)}, {f: f}
        )
        d = Diagram((Y, L_ARS), (f,))
        assert apply_functor(ident, d) == d

    def test_rename_keeps_edge_kinds(self):
        functor, primes = rename_functor()
        f = MorphismSpec(Affine(2, 1), "Y", "L_ARS")
        image = apply_functor(
            Functor(
                "prime",
                functor.object_map,
                {f: MorphismSpec(f.kind, primes["Y"].id, primes["L_ARS"].id)},
            ),
            Diagram((Y, L_ARS), (f,)),
        )
        assert image.edges[0].kind == f.kind
        assert image.edges[0].source == "Y'"

    def test_unmapped_object(self):
        functor = Functor("partial", {"Y": Y})
        with pytest.raises(UnmappedObject):
            apply_functor(functor, Diagram((Y, L_ARS), ()))

    def test_unmapped_morphism(self):
        functor = Functor("empty", {o.id: o for o in (Y, L_ARS)})
        m = MorphismSpec(RiskDiscount("rho"), "Y", "L_ARS")
        with pytest.raises(UnmappedMorphism):
            functor.map_morphism(m)

    def test_policy_functor_rewrites_affine_coefficients(self):
        # a rate-shift policy: i -> i + delta realized through the image map
        delta = 5.0
        shifted = MorphismSpec(Affine(1, delta), "Y", "Y")
        policy = Functor(
            "rate shift",
            {"Y": Y},
            {identity("Y"): shifted},
        )
        panel = small_panel(Y=[1.0, 2.0])
        out = evaluate(policy.map_morphism(identity("Y")), panel)
        assert out.values == (6.0, 7.0)


class TestFunctorLaws:
    def test_identity_functor_passes_with_zero_deviation(self):
        panel = small_panel(
            Y=[1.0, 2.0], L_ARS=[3.0, 4.0], L_USD=[5.0, 6.0], rho=[0.1, 0.2]
        )
        f = MorphismSpec(Affine(2, 1), "Y", "L_ARS")
        g = MorphismSpec(RiskDiscount("rho"), "L_ARS", "L_USD")
        functor = Functor("id", {o.id: o for o in (Y, L_ARS, L_USD)}, {f: f, g: g})
        report = check_functor_laws(functor, [f, g], panel)
        assert report.passed
        assert all(c.deviation == 0.0 for c in report.checks)

    def test_structure_copy_passes(self):
        functor, primes = rename_functor()
        panel = small_panel(
            **{
                "Y": [1.0, 2.0],
                "Y'": [1.0, 2.0],
                "L_ARS": [3.0, 4.0],
                "L_ARS'": [3.0, 4.0],
                "R": [0.0, 0.0],
                "R'": [0.0, 0.0],
            }
        )
        f = MorphismSpec(Affine(2, 1), "Y", "L_ARS")
        g = MorphismSpec(Affine(3, 0), "L_ARS", "R")
        copy = Functor(
            "copy",
            functor.object_map,
            {
                f: MorphismSpec(f.kind, primes["Y"].id, primes["L_ARS"].id),
                g: MorphismSpec(g.kind, primes["L_ARS"].id, primes["R"].id),
            },
        )
        assert check_functor_laws(copy, [f, g], panel).passed

    def test_laws_check_objects_without_panel_columns(self):
        # flow-style targets are abstract; structural equality must suffice
        panel = small_panel(M2=[1.0, 2.0])
        m2 = EconObject("M2")
        flow = EconObject("flow")  # no such panel column
        f = MorphismSpec(Affine(2.0, 0.0), "M2", "flow")
        functor = Functor("id", {"M2": m2, "flow": flow}, {f: f})
        report = check_functor_laws(functor, [f], panel)
        assert report.passed

    def test_inconsistent_composite_image_fails(self):
        functor, primes = rename_functor()
        panel = small_panel(
            **{
                "Y": [1.0, 2.0],
                "Y'": [1.0, 2.0],
                "L_ARS": [0.0, 0.0],
                "L_ARS'": [0.0, 0.0],
                "R": [0.0, 0.0],
                "R'": [0.0, 0.0],
            }
        )
        f = MorphismSpec(Affine(2, 1), "Y", "L_ARS")
        g = MorphismSpec(Affine(3, 0), "L_ARS", "R")
        bad_composite = MorphismSpec(Affine(1, 99), primes["Y"].id, primes["R"].id)
        violating = Functor(
            "broken",
            functor.object_map,
            {
                f: MorphismSpec(f.kind, primes["Y"].id, primes["L_ARS"].id),
                g: MorphismSpec(g.kind, primes["L_ARS"].id, primes["R"].id),
                compose(f, g): bad_composite,
            },
        )
        assert not check_functor_laws(violating, [f, g], panel).passed


def random_affine_suite(n=50):
    rng = np.random.default_rng(SEED)
    objects = [EconObject(f"v{i}") for i in range(6)]
    morphisms = []
    for _ in range(n):
        a, b = rng.integers(0, len(objects), size=2)
        coeff = float(rng.uniform(-3, 3)) or 1.0
        shift = float(rng.uniform(-5, 5))
        morphisms.append(
            MorphismSpec(Affine(coeff, shift), objects[a].id, objects[b].id)
        )
    columns = {
        obj.id: Series(rng.uniform(-10, 10, size=20)) for obj in objects
    }
    return morphisms, Panel(daily_dates(20), columns)


class TestRandomizedLaws:
    def test_associativity_and_canonical_form(self):
        morphisms, panel = random_affine_suite()
        checked = 0
        for f in morphisms:
            for g in morphisms:
                if f.target != g.source:
                    continue
                fg = compose(f, g)
                seq = evaluate(g, panel.with_columns(
                    {g.source: evaluate(f, panel)}
                ))
                canon = evaluate(fg, panel)
                np.testing.assert_allclose(
                    canon.to_array(), seq.to_array(), rtol=1e-12, atol=1e-12
                )
                for h in morphisms[:10]:
                    if g.target != h.source:
                        continue
                    left = compose(compose(f, g), h)
                    right = compose(f, compose(g, h))
                    np.testing.assert_allclose(
                        evaluate(left, panel).to_array(),
                        evaluate(right, panel).to_array(),
                        rtol=1e-9,
                        atol=1e-9,
                    )
                    checked += 1
        assert checked > 25

    def test_identity_laws_hold_exactly(self):
        morphisms, panel = random_affine_suite()
        for f in morphisms:
            assert compose(identity(f.source), f) == f
            assert compose(f, identity(f.target)) == f


class TestJsonRoundTrip:
    def test_diagram_round_trip(self):
        f = MorphismSpec(Affine(2, 1), "Y", "L_ARS")
        g = MorphismSpec(RiskDiscount("rho"), "L_ARS", "L_USD")
        chain = compose(f, g)
        d = Diagram(
            (Y, L_ARS, L_USD),
            (f, g, chain),
            (((f, g), (chain,)),),
        )
        assert parse(Diagram, dump(Diagram, d), "diagram") == d

    def test_functor_round_trip(self):
        f = MorphismSpec(Affine(2, 1), "Y", "L_ARS")
        functor = Functor("id", {o.id: o for o in (Y, L_ARS)}, {f: f})
        recovered = functor_from_json(functor_document(functor))
        assert recovered.name == functor.name
        assert recovered.object_map == dict(functor.object_map)
        assert recovered.morphism_map == dict(functor.morphism_map)


    def test_endpoints_outside_the_nodes_are_rejected(self):
        f = MorphismSpec(Affine(2, 1), "Y", "L_ARS")
        with pytest.raises(ValueError, match=r"edges\[0\] endpoint 'Y'->'L_ARS'"):
            Diagram((Y,), (f,))
        with pytest.raises(ValueError, match=r"equal_paths\[0\]\[1\]"):
            Diagram((Y, L_ARS), (f,), (((f,), (MorphismSpec(Affine(2, 1), "Y", "R"),)),))

    def test_a_declared_path_must_link_and_a_pair_end_at_one_node(self):
        f = MorphismSpec(Affine(2, 1), "Y", "L_ARS")
        g = MorphismSpec(RiskDiscount("rho"), "L_ARS", "L_USD")
        h = MorphismSpec(Affine(2, 1), "Y", "L_USD")
        nodes = (Y, L_ARS, L_USD)
        broken = r"equal_paths\[0\]\[1\]\[1\] starts at 'Y', not where .*'L_ARS'"
        with pytest.raises(ValueError, match=broken):
            Diagram(nodes, (f, g, h), (((h,), (f, f)),))
        ends = "a path into 'L_ARS' with one into 'L_USD'"
        with pytest.raises(ValueError, match=ends):
            Diagram(nodes, (f, h), (((f,), (h,)),))
        Diagram(nodes, (f, g, h), (((f, g), (h,)),))
        Diagram(nodes, (g, h), (((g,), (h,)),))  # sources may differ

    def test_a_repeated_node_is_rejected_with_its_key_path(self):
        with pytest.raises(ValueError, match="nodes lists 'Y' twice"):
            Diagram((Y, L_ARS, EconObject("Y", "income again")))
        doc = {"nodes": [{"id": "Y"}, {"id": "Y"}]}
        with pytest.raises(InputError, match="^diagram: nodes lists 'Y' twice$"):
            parse(Diagram, doc, "diagram")

    def test_file_endpoints_are_node_ids(self):
        doc = {
            "nodes": [{"id": "Y"}, {"id": "L_ARS"}],
            "edges": [
                {
                    "source": "Y",
                    "target": "L_ARS",
                    "kind": {"type": "affine", "a": 2, "b": 1},
                }
            ],
        }
        edge = parse(Diagram, doc, "diagram").edges[0]
        assert edge == MorphismSpec(Affine(2.0, 1.0), "Y", "L_ARS")


def test_objects_that_share_an_image_are_one_image_node():
    f = MorphismSpec(Affine(2, 1), "L_ARS", "L_USD")
    merge = Functor("merge", {"L_ARS": L_ARS, "L_USD": L_ARS}, {f: identity("L_ARS")})
    image = apply_functor(merge, Diagram((L_ARS, L_USD), (f,)))
    assert image.nodes == (L_ARS,)
    assert image.edges == (identity("L_ARS"),)


class TestRatioChains:
    def test_ratio_source_object_needs_no_column(self):
        panel = small_panel(num=[6.0, 8.0], den=[2.0, 4.0])
        m = MorphismSpec(Ratio("num", "den"), "L", "relative")
        assert evaluate(m, panel).values == (3.0, 2.0)

    def test_chain_starting_with_ratio(self):
        panel = small_panel(num=[6.0], den=[2.0])
        ratio = MorphismSpec(Ratio("num", "den"), "L", "relative")
        scale = MorphismSpec(Affine(10.0, 1.0), "relative", "relative")
        assert evaluate(compose(ratio, scale), panel).values == (31.0,)
