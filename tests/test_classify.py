import copy
import gc
import hashlib
import importlib
import json
import pickle
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings

from levelalg import (
    HVector,
    MonomialIdeal,
    classify,
    construct_plateau_level,
    ek_betti,
    enumerate_o_sequences,
    iarrobino_lift,
    lex_betti_window,
    lex_segment_ideal,
    replay_certificate,
)
from levelalg import hvectors
from levelalg.classify import (
    LEVEL,
    NOT_LEVEL,
    R_31,
    R_33,
    R_37,
    R_42,
    R_44A,
    R_CANCEL,
    R_LEVEL_DIFF,
    RULES,
    UNKNOWN,
    Certificate,
)

from _support import LEVEL_VECTORS, NOT_LEVEL_VECTORS, family_hvector, o_sequences

# the package exports the function classify under the module's name
classify_module = importlib.import_module("levelalg.classify")

# Where each Betti quantity of a certificate sits in the ideal's resolution,
# as (q, shift - d).
BETTI_POSITIONS = {"beta1_d2": (1, 2), "beta2_d2": (2, 2), "beta2_d3": (2, 3)}


def _rules(verdict):
    return {c.rule for c in verdict.certificates}


def _certificate(verdict, rule):
    return next(c for c in verdict.certificates if c.rule == rule)


def test_not_level_example_with_socle_below_top():
    verdict = classify(HVector((1, 3, 6, 10, 15, 16, 18)))
    assert verdict.kind == NOT_LEVEL
    cert = _certificate(verdict, R_31)
    assert cert.d == 5
    assert cert.quantities == {"beta1_d2": 2, "beta2_d2": 2, "beta2_d3": 1}


def test_not_level_example_with_unequal_differences():
    verdict = classify(HVector((1, 3, 6, 10, 15, 16, 18, 20)))
    assert verdict.kind == NOT_LEVEL
    cert = _certificate(verdict, R_37)
    assert cert.d == 5
    assert cert.quantities["delta_hd"] == 1
    assert cert.quantities["delta_hd1"] == 2


def test_not_level_example_with_tight_restriction_bound():
    verdict = classify(HVector((1, 3, 6, 10, 15, 15, 16)))
    assert verdict.kind == NOT_LEVEL
    cert = _certificate(verdict, R_42)
    assert cert.d == 5
    assert cert.quantities == {"delta_hd": 0, "delta_hd1": 1, "green_hd1": 2}
    assert R_44A in _rules(verdict)  # ends at d+1 = s with h_d <= 3d+2


@pytest.mark.parametrize("entries", LEVEL_VECTORS)
def test_level_examples(entries):
    verdict = classify(HVector(entries))
    assert verdict.kind == LEVEL
    assert [c.rule for c in verdict.certificates] == [R_LEVEL_DIFF]


def test_equal_plateau_exemption_regression():
    # the borderline equality case h_4 = h_5 = h_6 = 6 = d+1 must not fire
    h = HVector((1, 3, 5, 6, 6, 6, 6))
    assert lex_betti_window(h, 5)[:2] == (1, 1)
    verdict = classify(h)
    assert verdict.kind == LEVEL
    assert R_33 not in _rules(verdict)


def test_top_degree_socle_is_permitted():
    # beta_2 = 6 > 0 = beta_1 at shift 9 sits at the socle degree: no firing
    verdict = classify(HVector((1, 3, 5, 6, 6, 6, 6)))
    assert R_CANCEL not in _rules(verdict)


def test_unknown_is_an_honest_outcome():
    # not differentiable, but no obstruction applies either
    verdict = classify(HVector((1, 3, 2)))
    assert verdict.kind == UNKNOWN
    assert verdict.certificates == ()
    # a non-unimodal tail is caught outright
    assert classify(HVector((1, 3, 4, 5, 4, 4))).kind == NOT_LEVEL


def test_classify_input_errors():
    with pytest.raises(ValueError):
        classify(HVector((1, 3, 7)))
    with pytest.raises(ValueError):
        classify(HVector((1, 2, 3)))
    with pytest.raises(ValueError):
        classify(HVector((1, 3)))


def test_certificates_replay_and_sit_below_socle():
    seen_rules = set()
    for s in range(2, 6):
        for h in enumerate_o_sequences(s, 12):
            verdict = classify(h)
            for cert in verdict.certificates:
                assert replay_certificate(cert), cert
                if cert.rule != R_LEVEL_DIFF:
                    assert cert.d < h.socle_degree
                seen_rules.add(cert.rule)
    assert {R_CANCEL, R_31, R_33, R_42, R_44A, R_LEVEL_DIFF} <= seen_rules


def test_replay_detects_tampering():
    verdict = classify(HVector((1, 3, 6, 10, 15, 16, 18)))
    cert = _certificate(verdict, R_31)
    tampered = replace(cert, quantities={**cert.quantities, "beta2_d3": 0})
    assert not replay_certificate(tampered)
    with pytest.raises(ValueError):
        replay_certificate(Certificate("R-BOGUS", 2, {}))


@pytest.mark.parametrize(
    "rule, quantities",
    [
        (R_31, {"beta1_d2": 2, "beta2_d2": 2}),
        (R_CANCEL, {"beta1_d2": 1, "beta2_d2": 2, "junk": 0}),
        (R_LEVEL_DIFF, {"delta_0": 1, "delta_1": 2, "delta_3": 0}),
        (R_LEVEL_DIFF, {"delta_0": 1, "delta_1": 2, "delta_2": 0, "junk": 0}),
    ],
    ids=["missing", "extra", "gap", "extra-diff"],
)
def test_replay_rejects_wrong_quantity_names(rule, quantities):
    with pytest.raises(ValueError, match="expected"):
        replay_certificate(Certificate(rule, 2, quantities))


def test_replay_ignores_quantity_order():
    # a certificate read back from sort_keys JSON replays: there R-33's
    # h_d sorts before h_dm1, and delta_10 before delta_2
    vectors = NOT_LEVEL_VECTORS + [(1, 3, 4, 5, 4, 4)] + [family_hvector(12, 5)]
    rules = set()
    for entries in vectors:
        for cert in classify(HVector(entries)).certificates:
            data = json.loads(json.dumps(cert.as_dict(), sort_keys=True))
            assert list(data["quantities"]) == sorted(cert.quantities)
            assert replay_certificate(Certificate(**data)), cert
            rules.add(cert.rule)
    assert {R_33, R_LEVEL_DIFF} <= rules


@settings(max_examples=200, deadline=None)
@given(o_sequences())
def test_every_certificate_replays_under_its_rule_names(h):
    assume(h.socle_degree >= 2)
    for cert in classify(h).certificates:
        if cert.rule == R_LEVEL_DIFF:
            names = tuple(f"delta_{i}" for i in range(h.socle_degree + 1))
        else:
            names = RULES[cert.rule]
        assert tuple(cert.quantities) == names, cert
        assert replay_certificate(cert), cert


def test_certificate_quantities_are_read_only():
    source = {"beta1_d2": 2, "beta2_d2": 2, "beta2_d3": 1}
    cert = Certificate(R_31, 5, source)
    with pytest.raises(TypeError):
        cert.quantities["beta2_d3"] = 0
    with pytest.raises(TypeError):
        del cert.quantities["beta1_d2"]
    source["beta2_d3"] = 0  # the certificate holds its own copy
    assert cert.quantities == {"beta1_d2": 2, "beta2_d2": 2, "beta2_d3": 1}
    assert replay_certificate(cert)
    verdict = classify(HVector((1, 3, 6, 10, 15, 16, 18)))
    for cert in verdict.certificates:
        with pytest.raises(TypeError):
            cert.quantities["d"] = 0
    assert json.dumps(verdict.as_dict(), sort_keys=True) == (
        '{"certificates": [{"d": 5, "quantities": {"beta1_d2": 2, "beta2_d2": 2, '
        '"beta2_d3": 1}, "rule": "R-31"}, {"d": 5, "quantities": {"beta1_d2": 2, '
        '"beta2_d2": 2, "delta_hd": 1, "delta_hd1": 2}, "rule": "R-37"}], '
        '"verdict": "NotLevel"}'
    )


def test_certificates_pickle_and_copy_through_plain_dicts():
    verdict = classify(HVector((1, 3, 6, 10, 15, 16, 18)))
    assert verdict.certificates
    for clone in (pickle.loads(pickle.dumps(verdict)), copy.deepcopy(verdict)):
        assert clone == verdict
        assert clone.as_dict() == verdict.as_dict()
        for cert in clone.certificates:
            assert replay_certificate(cert)
            with pytest.raises(TypeError):
                cert.quantities["d"] = 0


def _backing(cert):
    """The dict behind a certificate's read-only quantities view."""
    (mapping,) = gc.get_referents(cert.quantities)
    return mapping


def test_classify_certificates_own_their_quantities():
    vectors = [HVector(e) for e in NOT_LEVEL_VECTORS + LEVEL_VECTORS]
    verdicts = [classify(h) for h in vectors] + [classify(h) for h in vectors]
    backing = [_backing(c) for v in verdicts for c in v.certificates]
    assert {cert.rule for v in verdicts for cert in v.certificates} >= {R_31, R_LEVEL_DIFF}
    assert all(type(mapping) is dict for mapping in backing)
    # no two certificates, within a verdict or across verdicts, share a dict
    assert len({id(mapping) for mapping in backing}) == len(backing)
    for verdict in verdicts:
        for cert in verdict.certificates:
            with pytest.raises(TypeError):
                cert.quantities["d"] = 0
            with pytest.raises(TypeError):
                del cert.quantities[next(iter(cert.quantities))]
        for clone in (pickle.loads(pickle.dumps(verdict)), copy.deepcopy(verdict)):
            assert clone == verdict
            assert clone.as_dict() == verdict.as_dict()
            for mine, theirs in zip(clone.certificates, verdict.certificates):
                assert _backing(mine) is not _backing(theirs)
                assert replay_certificate(mine)
                with pytest.raises(TypeError):
                    mine.quantities["d"] = 0


def test_valid_input_is_validated_once(monkeypatch):
    # the Betti column loop is the only validation classify runs on valid
    # input, and the R-LEVEL-DIFF growth check rides the rule loop
    def forbidden(*args, **kwargs):
        raise AssertionError("classify must not call growth_violation")

    monkeypatch.setattr(hvectors, "growth_violation", forbidden)
    monkeypatch.setattr(classify_module, "growth_violation", forbidden)
    kinds = {classify(h).kind for h in enumerate_o_sequences(5, 12)}
    assert kinds == {LEVEL, NOT_LEVEL, UNKNOWN}


def test_no_vector_is_both_level_and_not_level_small_sweep():
    for s in range(2, 6):
        for h in enumerate_o_sequences(s, 12):
            verdict = classify(h)
            if verdict.kind == NOT_LEVEL:
                assert not h.is_differentiable(), h
            else:
                # the rule loop's growth check on Delta h against its twin
                assert (verdict.kind == LEVEL) == h.is_differentiable(), h


@settings(max_examples=200, deadline=None)
@given(o_sequences())
def test_level_exactly_when_differentiable_property(h):
    assume(h.socle_degree >= 2)
    verdict = classify(h)
    if verdict.kind != NOT_LEVEL:
        assert (verdict.kind == LEVEL) == h.is_differentiable(), h


def test_equality_positions_satisfy_the_dichotomy():
    # whenever beta_1 = beta_2 > 0 in the window and no rule fires, the
    # h-vector window is either the d+1 plateau or strictly increasing with
    # equal consecutive differences
    for s in range(3, 6):
        for h in enumerate_o_sequences(s, 12):
            verdict = classify(h)
            if verdict.kind == NOT_LEVEL:
                continue
            for d in range(2, s):
                beta1, beta2, _ = lex_betti_window(h, d)
                if beta1 == beta2 > 0:
                    window = h.at(d - 1), h.at(d), h.at(d + 1)
                    plateau = window == (d + 1, d + 1, d + 1)
                    increasing = window[0] < window[1] < window[2]
                    equal_deltas = window[1] - window[0] == window[2] - window[1]
                    assert plateau or (increasing and equal_deltas), (h, d)


def test_iarrobino_lift_examples():
    base = HVector((1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 58, 61, 64))
    lifted = iarrobino_lift(base)
    assert lifted.entries == (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 64, 64, 65)
    assert iarrobino_lift(HVector((1, 3, 3))).entries == (1, 3, 4)


def test_iarrobino_lift_rejects_invalid_base():
    with pytest.raises(ValueError, match="violates Macaulay bound at degree 2"):
        iarrobino_lift(HVector((1, 3, 7)))
    with pytest.raises(ValueError, match="h1 must be 3"):
        iarrobino_lift(HVector((1, 2, 1)))


def test_iarrobino_lift_fixes_full_truncation():
    full = HVector((1, 3, 6, 10, 15))
    assert iarrobino_lift(full) == full


def test_construct_plateau_example_46():
    base, lifted = construct_plateau_level(11, 31)
    assert base.entries == (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 58, 61, 64)
    assert lifted.entries == (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 64, 64, 65)
    assert classify(lifted).kind != NOT_LEVEL


def test_construct_plateau_small_case():
    base, lifted = construct_plateau_level(7, 6)
    assert base.entries == (1, 3, 6, 10, 15, 18, 21, 24, 27)
    assert lifted.entries == (1, 3, 6, 10, 15, 21, 27, 27, 28)
    assert lifted.at(6) == lifted.at(7) == 3 * 7 + 6
    assert lifted.at(8) == 3 * 7 + 6 + 1
    assert classify(lifted).kind != NOT_LEVEL


def test_construct_plateau_degenerate_parameters_error():
    # the caps bind for small d: the lift of the (2, 3) base is the full
    # truncation (1, 3, 6, 10), nowhere near the plateau 9, 9, 10
    with pytest.raises(ValueError, match="plateau"):
        construct_plateau_level(2, 3)
    with pytest.raises(ValueError):
        construct_plateau_level(1, 5)
    with pytest.raises(ValueError):
        construct_plateau_level(4, 2)


def test_constructed_lifts_are_never_rejected():
    for d, ell in [(6, 3), (7, 7), (8, 10), (9, 3), (10, 20)]:
        _, lifted = construct_plateau_level(d, ell)
        assert classify(lifted).kind != NOT_LEVEL, (d, ell)


def test_verdict_json_shape():
    verdict = classify(HVector((1, 3, 6, 10, 15, 16, 18)))
    data = verdict.as_dict()
    assert data["verdict"] == "NotLevel"
    assert {"rule", "d", "quantities"} == set(data["certificates"][0])


@settings(max_examples=60, deadline=None)
@given(o_sequences())
def test_certificate_betti_quantities_equal_resolution(h):
    assume(h.socle_degree >= 2)
    columns = ek_betti(lex_segment_ideal(h))
    certificates = classify(h).certificates
    for cert in certificates:
        for name, value in cert.quantities.items():
            if name.startswith("beta"):
                q, offset = BETTI_POSITIONS[name]
                assert value == columns[q][cert.d + offset], (h, cert)
    # the two rules on Betti numbers alone fire exactly where the resolution
    # says they should, so a misread column cannot hide by firing nowhere
    _, b1, b2 = columns
    expected = set()
    for d in range(2, h.socle_degree):
        beta1, beta2 = b1[d + 2], b2[d + 2]
        if beta2 > beta1:
            expected.add((R_CANCEL, d))
        if beta1 == beta2 > 0 and b2[d + 3] > 0:
            expected.add((R_31, d))
    fired = {(c.rule, c.d) for c in certificates if c.rule in (R_CANCEL, R_31)}
    assert fired == expected, h


def test_classify_reads_no_diagram_and_no_h_lookups(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("classify must read the integer columns by index")

    # no ideal is built to resolve, and h is read through its entries
    monkeypatch.setattr(MonomialIdeal, "_build", forbidden)
    monkeypatch.setattr(HVector, "at", forbidden)
    kinds = {classify(h).kind for h in enumerate_o_sequences(5, 12)}
    assert kinds == {LEVEL, NOT_LEVEL, UNKNOWN}


def _digest_corpus():
    yield from enumerate_o_sequences(6, 20)
    for s in (32, 64):
        for c in range(41):
            yield family_hvector(s, c)


def test_verdict_json_bytes_unchanged():
    # blake2b over the sorted JSON of every verdict, recorded before classify
    # read integer columns: any change to a verdict, a certificate or its
    # JSON form moves it
    hasher = hashlib.blake2b(digest_size=16)
    count = 0
    for h in _digest_corpus():
        payload = {"hvector": list(h), **classify(h).as_dict()}
        hasher.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
        count += 1
    assert count == 3241
    assert hasher.hexdigest() == "597c62e069a3c8fb183eeb45de512f7a"
