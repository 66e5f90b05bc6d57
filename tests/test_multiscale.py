import random
from fractions import Fraction as F

import pytest

from anstab import multiscale, stability
from anstab.exact import EC, factor, gr
from anstab.hearts import Heart, HeartError, forward_tilt, standard_heart
from anstab.klattice import simple_twist_data
from anstab.multiscale import (
    INFTY,
    MscError,
    MultiScaleStab,
    NeighborhoodSpec,
    _h_window_label,
    c_act_msc,
    chart_coords,
    commutation_defect,
    equivalent,
    in_neighborhood,
    normalize_representative,
    plumb,
    projectively_equivalent,
    type_rho,
    validate_msc,
)
from anstab.sampling import random_msc
from anstab.stability import class_value


def a2_limit_datum():
    top = forward_tilt(standard_heart(2), 2)
    return validate_msc(top, [{1: gr(0), 2: gr(-1)}, {1: gr(1)}])


class TestValidate:
    def test_a2_limit(self):
        m = a2_limit_datum()
        assert m.L == 1
        assert type_rho(m) == [(1,)]
        assert m.labels(1) == frozenset({1})

    def test_honest(self):
        m = validate_msc(standard_heart(2), [{1: gr(0, 1), 2: gr(0, 1)}])
        assert m.L == 0

    def test_missing_deeper_level(self):
        with pytest.raises(MscError, match="further level charge"):
            validate_msc(standard_heart(2), [{1: gr(0), 2: gr(0, 1)}])

    def test_deeper_level_supplied(self):
        m = validate_msc(standard_heart(2), [{1: gr(0), 2: gr(0, 1)}, {1: gr(1)}])
        assert m.L == 1

    def test_identically_zero(self):
        with pytest.raises(MscError, match="identically zero"):
            validate_msc(standard_heart(2), [{1: gr(0), 2: gr(0)}])

    def test_non_basis_heart_rejected(self):
        h = Heart((1, 2), ((2, 0), (0, 1)), standard_heart(2).ext)
        with pytest.raises(HeartError, match="Z-basis"):
            validate_msc(h, [{1: gr(0, 1), 2: gr(0, 1)}])

    def test_level0_strict_half_plane(self):
        with pytest.raises(MscError, match="level 0"):
            validate_msc(standard_heart(2), [{1: gr(1), 2: gr(0)}, {2: gr(1)}])

    def test_invalid_component_type(self):
        # a star is not of mutation type A, so its heart is never built and
        # no vanishing subset of it reaches ``validate_msc``
        from anstab.anquiver import QuiverError, QuiverWithPotential

        with pytest.raises(QuiverError, match="vertex 3 has 4 neighbours"):
            QuiverWithPotential.build([1, 2, 3, 4, 5], [(1, 3), (2, 3), (3, 4), (3, 5)])

    def test_type_rho_components(self):
        h = standard_heart(4)
        m = validate_msc(
            h,
            [
                {1: gr(0), 2: gr(0), 3: gr(0, 1), 4: gr(0)},
                {1: gr(0, 1), 2: gr(0, 2), 4: gr(-1)},
            ],
        )
        assert type_rho(m) == [(2, 1)]

    def test_json_roundtrip(self):
        m = a2_limit_datum()
        again = MultiScaleStab.from_json(m.to_json())
        assert equivalent(m, again)

    def test_json_roundtrip_rotated_values(self):
        import json

        from anstab.limits import LaurentCharge, extract_limit

        family = LaurentCharge.build(
            {1: {0: gr(-1), 1: gr(0, 1)}, 2: {0: gr(1), 1: gr(0, 1)}}
        )
        m, _ = extract_limit(standard_heart(2), family)
        again = MultiScaleStab.from_json(json.loads(json.dumps(m.to_json())))
        assert again.charges == m.charges


    def test_level_simples_must_match_the_charge(self):
        """A level's ``simples`` is optional; when given it must list the
        labels the chain derives for that level, in any order."""
        from anstab.exact import AnstabError

        data = a2_limit_datum().to_json()
        data["levels"][1]["simples"] = [2]
        with pytest.raises(AnstabError, match=r"level 1 simples \[2\]"):
            MultiScaleStab.from_json(data)
        for bad in ([7, 8, 9], [1], [1, 2, 2], [1.0, 2], "12"):
            data["levels"][1]["simples"], data["levels"][0]["simples"] = [1], bad
            with pytest.raises(AnstabError, match="level 0 simples") as err:
                MultiScaleStab.from_json(data)
            assert err.value.exit_code == 2
        data["levels"][0]["simples"] = [2, 1]
        assert equivalent(MultiScaleStab.from_json(data), a2_limit_datum())
        del data["levels"][0]["simples"], data["levels"][1]["simples"]
        assert equivalent(MultiScaleStab.from_json(data), a2_limit_datum())

    def test_json_roundtrip_multi_atom_charges(self):
        import json

        rng = random.Random(4)
        checked = 0
        while checked < 8:
            m = random_msc(rng, rng.choice([3, 4]), max_levels=1)
            if m.L != 1:
                continue
            out = c_act_msc(plumb(m, [(F(1, 3), F(-1, 2))]), F(1, 5))
            if all(len(v.atoms) <= 1 for lvl in out.charges for _, v in lvl):
                continue
            back = MultiScaleStab.from_json(json.loads(json.dumps(out.to_json())))
            assert equivalent(back, out)
            assert back.charges == out.charges
            checked += 1

    def test_two_atom_deeper_value(self):
        # conj(v) * v is an exact tie that no filter decides for a two-atom
        # v, so the window test compares each label only with the others
        two = EC.unit(F(1, 5)) * gr(1, 1) + EC.unit(F(1, 7), -1)
        m = validate_msc(standard_heart(2), [{1: gr(-1, 1), 2: gr(0)}, {2: two}])
        assert m.charge(1) == {2: two}
        assert _h_window_label([(2, two)]) == 2

    def test_json_roundtrip_multi_atom_deeper_level(self):
        import json

        rng = random.Random(3)
        m = random_msc(rng, 4, max_levels=3)
        taus = [INFTY] * (m.L - 1) + [(F(rng.randrange(-12, 13), 13), F(-1, 2))]
        out = c_act_msc(plumb(m, taus), F(rng.randrange(-12, 13), 13))
        assert any(len(v.atoms) > 1 for lvl in out.charges[1:] for _, v in lvl)
        back = MultiScaleStab.from_json(json.loads(json.dumps(out.to_json())))
        assert equivalent(back, out)
        assert back.charges == out.charges


class TestEquivalence:
    def test_scalar_on_lower_level(self):
        top = forward_tilt(standard_heart(2), 2)
        m1 = a2_limit_datum()
        m2 = validate_msc(top, [{1: gr(0), 2: gr(-1)}, {1: gr(2, 3)}])
        assert equivalent(m1, m2)

    def test_scalar_on_top_level(self):
        top = forward_tilt(standard_heart(2), 2)
        m1 = a2_limit_datum()
        m3 = validate_msc(top, [{1: gr(0), 2: gr(-2)}, {1: gr(1)}])
        assert not equivalent(m1, m3)
        assert projectively_equivalent(m1, m3)

    def test_different_chain(self):
        m1 = a2_limit_datum()
        m4 = validate_msc(standard_heart(2), [{1: gr(0), 2: gr(0, 1)}, {1: gr(1)}])
        assert not equivalent(m1, m4)
        assert not projectively_equivalent(m1, m4)

    def test_different_level0_quotient_heart(self):
        # same chain and the same charges as maps on K, but the top heart is
        # tilted twice at the quotient simple 3: the level-0 quotient hearts
        # differ, so the objects are not equivalent
        top1 = forward_tilt(forward_tilt(standard_heart(4), 3), 1)
        m1 = validate_msc(
            top1,
            [
                {1: gr(0), 2: gr(F(-5, 2), 4), 3: gr(F(-5, 3), 2), 4: gr(0, 1)},
                {1: gr(6, F(2, 3))},
            ],
        )
        top2 = forward_tilt(forward_tilt(top1, 3), 3)
        charges = [
            {l: class_value(top1, m1.charge(i), top2.cls(l)) for l in m1.labels(i)}
            for i in range(2)
        ]
        m2 = validate_msc(top2, charges)
        assert m2.labels(1) == m1.labels(1) and top2.classes != top1.classes
        assert equivalent(m1, m1)
        assert equivalent(m1, m2) is False
        assert projectively_equivalent(m1, m2) is False


class TestPlumb:
    def test_imaginary_tau(self):
        m = a2_limit_datum()
        p = plumb(m, [(0, -2)])
        assert p.L == 0
        z = p.charge(0)
        assert z[2] == EC.rational(-1)
        # lower simple value: e^{-2 pi} times the normalized Z_1(E) = -1
        assert z[1] == EC.unit(0, -2) * EC.rational(-1)

    def test_infinite_tau_identity(self):
        m = a2_limit_datum()
        assert equivalent(plumb(m, [INFTY]), m)

    def test_real_part_shifts_lower_level(self):
        m = a2_limit_datum()
        p = plumb(m, [(1, -2)])
        assert p.top.cls(1) == (-1, -1)          # E[1]
        z = p.charge(0)
        assert z[2] == EC.rational(-1)
        assert z[1] == EC.unit(0, -2) * EC.rational(-1)   # tilted once: -e^{-2 pi}

    def test_quotient_data_unchanged(self):
        m = a2_limit_datum()
        p = plumb(m, [(1, -2)])
        assert p.charge(0)[2] == m.charge(0)[2]

    def test_wrong_arity(self):
        with pytest.raises(MscError):
            plumb(a2_limit_datum(), [])

    def test_tau_needs_negative_imaginary(self):
        with pytest.raises(MscError):
            plumb(a2_limit_datum(), [(0, 1)])

    def test_purely_imaginary_charges_exact(self):
        # lower restriction is exactly e^(-i pi tau) Z_1; quotient untouched
        h = standard_heart(3)
        m = validate_msc(
            h, [{1: gr(-1, 1), 2: gr(0), 3: gr(0)}, {2: gr(0, 1), 3: gr(-2, 1)}]
        )
        tau = (0, F(-3, 2))
        p = plumb(m, [tau])
        rot = EC.unit(0, F(-3, 2))
        assert p.charge(0)[2] == rot * m.charge(1)[2]
        assert p.charge(0)[3] == rot * m.charge(1)[3]
        assert p.charge(0)[1] == m.charge(0)[1]
        assert p.top.classes == m.top.classes

    def test_representative_independence(self):
        # plumbing an equivalently rescaled representative with the
        # compensating shift of tau gives the identical honest object; a
        # unit-modulus scalar shifts Re(tau) (the documented real
        # translation) and the modulus shifts Im(tau)
        top = forward_tilt(standard_heart(2), 2)
        m1 = validate_msc(top, [{1: gr(0), 2: gr(-1)}, {1: gr(-1)}])
        scal = EC.unit(F(1, 4), F(1, 3))
        m2 = MultiScaleStab(
            m1.top,
            (m1.charges[0], tuple((l, scal * v) for l, v in m1.charges[1])),
        )
        assert equivalent(m1, m2)
        tau = (F(1, 4), F(-2))
        shifted = (tau[0] - F(1, 4), tau[1] - F(1, 3))
        p1 = plumb(m1, [tau])
        p2 = plumb(m2, [shifted])
        assert p1.top.classes == p2.top.classes
        assert p1.charges == p2.charges

    def test_validates_after_plumbing(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_msc(rng, rng.choice([2, 3, 4]), max_levels=2)
            taus = []
            for _ in range(m.L):
                if rng.random() < 0.3:
                    taus.append(INFTY)
                else:
                    taus.append(
                        (F(rng.randrange(0, 8), 4), F(-rng.randrange(1, 9), 2))
                    )
            p = plumb(m, taus)
            # revalidation from raw data must succeed
            validate_msc(p.top, [p.charge(i) for i in range(p.L + 1)])


class TestActionOnMsc:
    def test_shift(self):
        m = a2_limit_datum()
        a = c_act_msc(m, 1)
        assert a.level_sets == m.level_sets
        assert a.top.classes == tuple(tuple(-x for x in c) for c in m.top.classes)

    def test_imaginary_rescales(self):
        m = a2_limit_datum()
        a = c_act_msc(m, (0, F(-1)))
        assert a.top.classes == m.top.classes
        scale = EC.unit(0, -1)
        norm = normalize_representative(m)
        for i in range(2):
            for l, v in norm.charges[i]:
                assert a.charge(i)[l] == scale * v

    def test_half_rotation_preserves_chain(self):
        m = a2_limit_datum()
        a = c_act_msc(m, F(1, 2))
        assert a.level_sets == m.level_sets
        assert a.charge(0)[2] == EC.rational(0, 1)

    def test_action_additive_up_to_equivalence(self):
        rng = random.Random(5)
        for _ in range(10):
            m = random_msc(rng, rng.choice([2, 3, 4]), max_levels=2)
            l1 = F(rng.randrange(0, 8), 8)
            l2 = F(rng.randrange(0, 8), 8)
            a = c_act_msc(c_act_msc(m, l2), l1)
            b = c_act_msc(m, l1 + l2)
            assert equivalent(a, b)

    def test_charges_rotate(self):
        m = a2_limit_datum()
        lam = F(1, 3)
        a = c_act_msc(m, lam)
        rot = EC.unit(lam)
        norm = normalize_representative(m)
        assert a.charge(0)[2] == rot * norm.charge(0)[2]
        assert a.charge(1)[1] == rot * norm.charge(1)[1]


@pytest.fixture
def unfactor(monkeypatch):
    """Call it to keep every level as ExactComplex values: ``exact.factor``
    then accepts no level in the tilt engine."""
    return lambda: monkeypatch.setattr(stability, "factor", lambda values: None)


def test_factored_levels_match_the_product_path(unfactor):
    """``plumb`` and ``c_act_msc`` run factored levels, and a plumbed level
    that mixes two factors unfactored; both must return the objects the
    engine returns with every level kept as ExactComplex values."""
    rng = random.Random(29)
    cases = []
    for _ in range(30):
        m = random_msc(rng, rng.choice([2, 3, 4, 5]), max_levels=2)
        taus = [rng.choice([INFTY, (F(rng.randrange(0, 8), 4), F(-rng.randrange(1, 9), 2))])
                for _ in range(m.L)]
        lam = (F(rng.randrange(-16, 17), 8), F(rng.randrange(-4, 5), 4))
        p = plumb(m, taus)
        cases.append((m, taus, lam, p, c_act_msc(p, lam)))
    unfactor()
    for m, taus, lam, p, out in cases:
        assert plumb(m, taus) == p
        assert c_act_msc(p, lam) == out


def test_level_checks_match_the_unfactored_path(monkeypatch):
    """``_h_window_label`` gives the label the product rule gives (no
    conj(v_a) * v_b in H), and ``validate_msc`` and
    ``normalize_representative`` give the same results, and the same errors,
    with the product rule in its place.  Seeded deeper levels of three kinds:
    Gaussian, one rotated and rescaled key, and two keys mixed; plus the
    levels ``plumb`` and ``c_act_msc`` return."""
    rng = random.Random(37)

    def gauss():
        while True:
            g = gr(F(rng.randrange(-6, 7), rng.randrange(1, 4)), rng.randrange(-6, 7))
            if not g.is_zero():
                return g

    def unit():
        return EC.unit(F(rng.randrange(-24, 25), 12), F(rng.randrange(-2, 3), 2))

    inputs, levels = [], []
    while len(inputs) < 90:
        m = random_msc(rng, rng.choice([2, 3, 4, 5]), max_levels=2)
        if m.L == 0:
            continue
        kind = len(inputs) % 3
        units = [EC.rational(1)] if kind == 0 else [unit() for _ in range(kind)]
        charges = [m.charge(0)]
        for i in range(1, m.L + 1):
            quot = m.quotient_labels(i)
            charges.append({l: gauss() * rng.choice(units) if l in quot else v
                            for l, v in m.charge(i).items()})
            levels.append([(l, charges[i][l]) for l in sorted(quot)])
        inputs.append((m.top, charges))
        p = c_act_msc(plumb(m, [(F(rng.randrange(0, 8), 4), -1)] + [INFTY] * (m.L - 1)), F(1, 3))
        for i in range(p.L + 1):
            levels.append([(l, p.charge(i)[l]) for l in sorted(p.quotient_labels(i))])

    def product_rule(vals):
        ch = dict(vals)
        return next((a for a in ch if not any(
            (ch[a].conj() * ch[b]).in_upper_semiclosed() for b in ch if b != a)), None)

    def outcome(top, charges):
        try:
            m = validate_msc(top, charges)
        except MscError as exc:
            return str(exc)
        return m, normalize_representative(m)

    want = [outcome(top, charges) for top, charges in inputs]
    want_labels = [_h_window_label(vals) for vals in levels]
    keys = [factor(dict(vals)) for vals in levels]
    # each kind, levels with and without a window, and rejected inputs
    assert {None, (0, 0)} <= {k and k[0][:2] for k in keys}
    assert any(k and k[0][:2] != (0, 0) for k in keys)
    assert None in want_labels and any(a is not None for a in want_labels)
    assert any(isinstance(w, str) for w in want) and any(isinstance(w, tuple) for w in want)
    assert [product_rule(vals) for vals in levels] == want_labels
    monkeypatch.setattr(multiscale, "_h_window_label", product_rule)
    assert [outcome(top, charges) for top, charges in inputs] == want


def test_validate_stores_the_canonical_representative(monkeypatch):
    """``validate_msc`` returns every deeper quotient value in H, a fixed
    point of ``normalize_representative`` that is equivalent to the object
    before its deeper levels were rescaled, and ``plumb``, ``c_act_msc`` and
    ``commutation_defect`` never normalize again.  Seeded deeper levels
    multiplied by a random unit and a Gaussian."""
    rng = random.Random(43)

    def gauss():
        while True:
            g = gr(F(rng.randrange(-6, 7), rng.randrange(1, 4)), rng.randrange(-6, 7))
            if not g.is_zero():
                return g

    cases, moved = [], 0
    while len(cases) < 40:
        m = random_msc(rng, rng.choice([2, 3, 4, 5]), max_levels=2)
        if m.L == 0:
            continue
        charges = [m.charge(0)]
        for i in range(1, m.L + 1):
            scal = EC.unit(F(rng.randrange(-24, 25), 12), F(rng.randrange(-2, 3), 2)) * gauss()
            charges.append({l: scal * v for l, v in m.charge(i).items()})
            moved += any(not charges[i][l].in_upper_semiclosed() for l in m.quotient_labels(i))
        got = validate_msc(m.top, charges)
        for i in range(1, got.L + 1):
            assert all(got.charge(i)[l].in_upper_semiclosed() for l in got.quotient_labels(i))
        assert normalize_representative(got) == got
        assert equivalent(got, m)
        cases.append(got)
    assert moved > 20
    calls = []
    monkeypatch.setattr(multiscale, "normalize_representative", calls.append)
    for m in cases:
        lam = (F(rng.randrange(0, 4), 8), F(rng.randrange(-4, 5), 4))
        tau = (F(rng.randrange(0, 4), 8), F(-rng.randrange(1, 9), 3))
        plumb(m, [tau] + [INFTY] * (m.L - 1))
        c_act_msc(m, lam)
        if m.L == 1:
            commutation_defect(m, lam, tau)
    assert calls == []


class TestDefect:
    def test_requires_one_level(self):
        m = validate_msc(standard_heart(2), [{1: gr(0, 1), 2: gr(0, 1)}])
        with pytest.raises(MscError):
            commutation_defect(m, 0, (0, -1))

    def test_preconditions(self):
        m = a2_limit_datum()
        with pytest.raises(MscError):
            commutation_defect(m, F(1, 2), (F(1, 2), -1))

    def test_imaginary_lambda_commutes_exactly(self):
        m = a2_limit_datum()
        r = commutation_defect(m, (0, F(-1, 2)), (F(1, 4), F(-2)))
        assert r.max_simple_defect == 0.0

    def test_both_orders_match_the_public_operations(self, monkeypatch):
        """sigma_tilde is lam.(tau*m) and sigma_hat is tau*(lam.m), as the
        public ``plumb`` and ``c_act_msc`` give them, with no normalization:
        ``validate_msc`` made m canonical."""
        rng = random.Random(41)
        cases = []
        while len(cases) < 40:
            m = random_msc(rng, rng.choice([2, 3, 4, 5]), max_levels=1)
            if m.L != 1:
                continue
            lre = F(rng.randrange(0, 4), 4)
            tau = (F(rng.randrange(0, 13 - int(13 * lre)), 13), F(-rng.randrange(1, 9), 3))
            cases.append((m, (lre, F(rng.randrange(-4, 5), 4)), tau))
        # plumbed at tau = -i, level 1 lands on level 0's key: the public
        # chain factors the merged level again, the defect's states do not
        m = validate_msc(standard_heart(3), [{1: gr(-2, 1), 2: gr(0), 3: gr(1, 1)},
                                             {2: EC.unit(0, 1) * gr(0, 1)}])
        cases += [(m, (F(1, 4), 0), (0, -1)), (m, (0, F(1, 2)), (0, -1))]
        calls = []

        def counted(m):
            calls.append(m)
            return normalize_representative(m)

        monkeypatch.setattr(multiscale, "normalize_representative", counted)
        for m, lam, tau in cases:
            calls.clear()
            r = commutation_defect(m, lam, tau)
            assert len(calls) == 0
            assert r.sigma_tilde == c_act_msc(plumb(m, [tau]), lam)
            assert r.sigma_hat == plumb(c_act_msc(m, lam), [tau])

    def test_defect_within_bound_and_decays(self):
        h = standard_heart(3)
        m = validate_msc(
            h, [{1: gr(-2, 1), 2: gr(0), 3: gr(1, 1)}, {2: gr(0, 1)}]
        )
        prev = None
        for tim in (-1, -2, -4, -8):
            r = commutation_defect(m, F(2, 5), (F(1, 3), F(tim)))
            assert r.within_bound
            if prev is not None and prev > 0:
                assert r.max_simple_defect < prev
            prev = r.max_simple_defect


class TestNeighborhoods:
    def test_roundtrip(self):
        m = a2_limit_datum()
        spec = NeighborhoodSpec(delta=(0.5,), eps=1e-9)
        cand = plumb(m, [(0, -2)])
        v = in_neighborhood(cand, m, spec)
        assert v.accepted
        (tau,) = v.tau
        assert abs(float(tau[1]) + 2) < 1e-9

    def test_roundtrip_with_rotation(self):
        h = standard_heart(3)
        m = validate_msc(
            h, [{1: gr(-2, 1), 2: gr(0), 3: gr(1, 1)}, {2: gr(0, 1)}]
        )
        cand = plumb(m, [(F(1, 4), -1)])
        v = in_neighborhood(cand, m, NeighborhoodSpec(delta=(0.9,), eps=1e-8))
        assert v.accepted
        (tau,) = v.tau
        assert abs(float(tau[0]) - 0.25) < 1e-9 and abs(float(tau[1]) + 1) < 1e-9

    def test_self_membership(self):
        m = a2_limit_datum()
        v = in_neighborhood(m, m, NeighborhoodSpec(delta=(0.5,), eps=1e-9))
        assert v.accepted and v.tau == (INFTY,)

    def test_chain_mismatch_rejected(self):
        h = standard_heart(3)
        m = validate_msc(
            h, [{1: gr(-2, 1), 2: gr(0), 3: gr(1, 1)}, {2: gr(0, 1)}]
        )
        other = validate_msc(
            h, [{1: gr(0), 2: gr(0, 1), 3: gr(1, 1)}, {1: gr(1)}]
        )
        v = in_neighborhood(other, m, NeighborhoodSpec(delta=(0.5,), eps=1e-9))
        assert not v.accepted

    def test_partial_plumbing_two_levels(self):
        h3 = forward_tilt(standard_heart(3), 2)
        m3 = validate_msc(
            h3,
            [
                {1: gr(-1, 2), 2: gr(0), 3: gr(0)},
                {2: gr(0, 1), 3: gr(0)},
                {3: gr(-3)},
            ],
        )
        cand = plumb(m3, [INFTY, (F(0), F(-2))])
        assert cand.L == 1
        v = in_neighborhood(cand, m3, NeighborhoodSpec(delta=(0.5, 0.5), eps=1e-8))
        assert v.accepted
        assert v.tau[0] is INFTY
        assert abs(float(v.tau[1][1]) + 2) < 1e-9
        full = plumb(m3, [(F(0), F(-1)), (F(0), F(-2))])
        v2 = in_neighborhood(full, m3, NeighborhoodSpec(delta=(0.9, 0.5), eps=1e-8))
        assert v2.accepted and all(t is not INFTY for t in v2.tau)

    def test_too_large_scale_rejected(self):
        m = a2_limit_datum()
        cand = plumb(m, [(0, -1)])
        v = in_neighborhood(cand, m, NeighborhoodSpec(delta=(1e-4,), eps=1e-9))
        assert not v.accepted

    def test_eps_bounds_the_quotient_charge_distance(self):
        m = a2_limit_datum()
        p = plumb(m, [(0, -2)])
        charge = dict(p.charge(0))
        charge[2] = charge[2] + EC.rational(F(1, 1000))
        cand = validate_msc(p.top, [charge])
        v = in_neighborhood(cand, m, NeighborhoodSpec(delta=(0.5,), eps=1e-8))
        assert not v.accepted and "exceeds epsilon" in v.reason
        ((interval, dist),) = v.distances
        assert interval == (0, 1) and dist == pytest.approx(1e-3)
        assert in_neighborhood(cand, m, NeighborhoodSpec(delta=(0.5,), eps=1e-2)).accepted


class TestCharts:
    def test_base_point(self):
        m = a2_limit_datum()
        cc = chart_coords(m, m)
        assert cc.t == (0j,)
        assert cc.pivots == (1,)
        z = dict(cc.top_values)
        assert abs(z[2] + 1) < 1e-12

    def test_t_roundtrip(self):
        import cmath

        m = a2_limit_datum()
        tau = (0, F(-2))
        cand = plumb(m, [tau])
        cc = chart_coords(cand, m)
        ell = simple_twist_data(type_rho(m)).levels[0].ell
        expected = cmath.exp(-2j * cmath.pi * complex(0, -2) / ell)
        assert abs(cc.t[0] - expected) < 1e-9

    def test_t_well_defined_on_shadows(self):
        # tau and tau + 2 plumb to the identical shadow, so the recovered
        # witness and the chart coordinate coincide
        h = standard_heart(3)
        m = validate_msc(
            h, [{1: gr(-1, 1), 2: gr(0), 3: gr(0)}, {2: gr(0, 1), 3: gr(-1, 2)}]
        )
        tau = (F(1, 7), F(-3))
        p1 = plumb(m, [tau])
        p2 = plumb(m, [(tau[0] + 2, tau[1])])
        assert p1.top.classes == p2.top.classes
        assert p1.charges == p2.charges
        c1 = chart_coords(p1, m)
        c2 = chart_coords(p2, m)
        assert abs(c1.t[0] - c2.t[0]) < 1e-12

    def test_lower_values_scale_by_t(self):
        # the coordinate change claim: plumbed lower charge = t * Z_1
        m = a2_limit_datum()
        tau = (0, F(-2))
        cand = plumb(m, [tau])
        cc = chart_coords(cand, m)
        norm = normalize_representative(m)
        z1 = complex(norm.charge(1)[1])
        zc = complex(cand.charge(0)[1])
        assert abs(zc - cc.t[0] * z1) < 1e-12

    def test_outside_raises(self):
        m = a2_limit_datum()
        cand = plumb(m, [(0, -1)])
        with pytest.raises(MscError):
            chart_coords(cand, m, NeighborhoodSpec(delta=(1e-6,), eps=1e-9))


class TestTwistCoherence:
    @staticmethod
    def rank3():
        return validate_msc(
            standard_heart(3), [{1: gr(-1, 1), 2: gr(0), 3: gr(0)}, {2: gr(0, 1), 3: gr(-1, 2)}]
        )

    def test_underflowing_witness_is_an_msc_error(self):
        m = self.rank3()
        p = plumb(m, [(F(1, 4), F(-300))])
        with pytest.raises(MscError, match="passage 1"):
            in_neighborhood(p, m, NeighborhoodSpec(delta=(0.1,), eps=1e-8))

    def test_plumbing_translated_by_ell(self):
        # translating tau by ell: both points lie in the neighborhood of m,
        # the quotient simple's charge is unchanged, and the lower charges
        # pick up the sign e^(-i pi ell).  The chart coordinates are not
        # compared; they differ at tau and tau + ell (ROADMAP item 8).
        m = self.rank3()
        ell = simple_twist_data(type_rho(m)).levels[0].ell
        tau = (F(1, 7), F(-3))
        p1 = plumb(m, [tau])
        p2 = plumb(m, [(tau[0] + ell, tau[1])])
        spec = NeighborhoodSpec(delta=(0.1,), eps=1e-8)
        assert in_neighborhood(p1, m, spec).accepted
        assert in_neighborhood(p2, m, spec).accepted
        assert p1.charge(0)[1] == p2.charge(0)[1]  # quotient simple untouched
        sign = EC.unit(ell % 2)
        from anstab.stability import class_value

        for l in (2, 3):
            cls = m.top.cls(l)
            v1 = class_value(p1.top, p1.charge(0), cls)
            v2 = class_value(p2.top, p2.charge(0), cls)
            assert v2 == sign * v1
