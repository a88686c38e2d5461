import copy
import gc
import hashlib
import importlib
import inspect
import json
import pickle
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from levelalg import (
    HVector,
    Monomial,
    MonomialIdeal,
    classify,
    construct_plateau_level,
    ek_betti,
    enumerate_o_sequences,
    iarrobino_lift,
    lex_betti_window,
    lex_segment_ideal,
    quotient_hf,
    replay_certificate,
)
from levelalg import betti, binomials, hvectors, oracle
from levelalg.classify import (
    LEVEL,
    NOT_LEVEL,
    R_31,
    R_33,
    R_37,
    R_42,
    R_44A,
    R_AS,
    R_CANCEL,
    R_LEVEL_DIFF,
    RULES,
    UNKNOWN,
    Certificate,
)

from _support import (
    LEVEL_VECTORS,
    NOT_LEVEL_VECTORS,
    classify_by_columns,
    family_and_walk_vectors,
    family_hvector,
    monomials_of_degree,
    o_sequences,
)

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
    "forged, honest",
    [
        # h_d and bound far above any cap at d = 5 (3d+2 = 17, 2d+3 = 13)
        (
            Certificate(R_44A, 5, {"delta_hd": 0, "delta_hd1": 1, "h_d": 10**6, "bound": 10**7}),
            Certificate(R_44A, 5, {"delta_hd": 0, "delta_hd1": 1, "h_d": 17, "bound": 17}),
        ),
        (
            Certificate(R_AS, 5, {"delta_hd": -1, "delta_hd1": 0, "h_d": 10**6, "bound": 10**7}),
            Certificate(R_AS, 5, {"delta_hd": -1, "delta_hd1": 0, "h_d": 13, "bound": 13}),
        ),
        # a differentiable (1, 2) whose d is not its socle degree 1
        (
            Certificate(R_LEVEL_DIFF, 99, {"delta_0": 1, "delta_1": 2}),
            Certificate(R_LEVEL_DIFF, 1, {"delta_0": 1, "delta_1": 2}),
        ),
        # classify fires obstruction rules only at d >= 2
        (
            Certificate(R_CANCEL, -7, {"beta1_d2": -5, "beta2_d2": -3}),
            Certificate(R_CANCEL, 2, {"beta1_d2": 3, "beta2_d2": 5}),
        ),
        (
            Certificate(R_CANCEL, 0, {"beta1_d2": 0, "beta2_d2": 1}),
            Certificate(R_CANCEL, 2, {"beta1_d2": 0, "beta2_d2": 1}),
        ),
        (
            Certificate(R_44A, -1, {"delta_hd": 0, "delta_hd1": 1, "h_d": -5, "bound": -1}),
            Certificate(R_44A, 3, {"delta_hd": 0, "delta_hd1": 1, "h_d": 5, "bound": 11}),
        ),
        # Betti numbers, entries of h and Green bounds are never negative
        (
            Certificate(R_CANCEL, 2, {"beta1_d2": -1, "beta2_d2": 0}),
            Certificate(R_CANCEL, 2, {"beta1_d2": 0, "beta2_d2": 1}),
        ),
        (
            Certificate(
                R_33, 3, {"beta1_d2": 1, "beta2_d2": 1, "h_dm1": -1, "h_d": 5, "h_dp1": 4}
            ),
            Certificate(
                R_33, 3, {"beta1_d2": 1, "beta2_d2": 1, "h_dm1": 5, "h_d": 5, "h_dp1": 4}
            ),
        ),
        (
            Certificate(R_42, 3, {"delta_hd": 0, "delta_hd1": 1, "green_hd1": -4}),
            Certificate(R_42, 3, {"delta_hd": 0, "delta_hd1": 1, "green_hd1": 2}),
        ),
    ],
    ids=[
        "R-44A-bound",
        "R-AS-bound",
        "R-LEVEL-DIFF-d",
        "R-CANCEL-negative-d",
        "R-CANCEL-d",
        "R-44A-d",
        "R-CANCEL-beta",
        "R-33-h",
        "R-42-green",
    ],
)
def test_replay_rejects_quantities_d_does_not_fix(forged, honest):
    # d fixes R-44A's and R-AS's bound and R-LEVEL-DIFF's socle degree, and
    # no h-vector gives an obstruction below d = 2 or a negative quantity
    # other than a delta, so a certificate that breaks either proves nothing
    assert not replay_certificate(forged)
    assert replay_certificate(honest)


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
            names, _ = RULES[cert.rule]
        assert tuple(cert.quantities) == names, cert
        assert replay_certificate(cert), cert


def test_replay_truth_table_is_pinned():
    # every rule's replay over small quantities, bound's fixed values among
    # them, at d = 0..4: a change to an inequality, a fixed value or the
    # d >= 2 and sign checks moves the digest
    digest = hashlib.blake2b(digest_size=16)
    small = range(-1, 4)
    for rule, (names, _) in RULES.items():
        for d in range(5):
            bounds = sorted({*small, 3 * d + 2, 2 * d + 3})
            domains = [bounds if name == "bound" else small for name in names]
            for values in product(*domains):
                cert = Certificate(rule, d, zip(names, values))
                digest.update(b"1" if replay_certificate(cert) else b"0")
    for k in range(1, 5):
        names = [f"delta_{i}" for i in range(k)]
        for d in range(5):
            for values in product(small, repeat=k):
                cert = Certificate(R_LEVEL_DIFF, d, zip(names, values))
                digest.update(b"1" if replay_certificate(cert) else b"0")
    assert digest.hexdigest() == "5144c5d3e2ffb62c27716fafa847eb2c"


def test_every_rule_row_takes_d_and_its_quantities_in_name_order():
    for rule, (names, holds) in RULES.items():
        params = inspect.signature(holds).parameters.values()
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), rule
        assert [p.name for p in params] == ["d", *names], rule


def _backing(cert):
    """The dict behind a certificate's read-only quantities view."""
    (mapping,) = gc.get_referents(cert.quantities)
    return mapping


def test_certificate_quantities_are_read_only():
    # a mapping, and (name, value) pairs: the zip classify passes, and a
    # list whose pairs can still change afterwards
    source = {"beta1_d2": 2, "beta2_d2": 2, "beta2_d3": 1}
    pairs = [["beta1_d2", 2], ["beta2_d2", 2], ["beta2_d3", 1]]
    certs = [
        Certificate(R_31, 5, quantities)
        for quantities in (source, zip(RULES[R_31][0], (2, 2, 1)), pairs)
    ]
    source["beta2_d3"] = 0  # each certificate holds its own copy
    pairs[2][1] = 0
    for cert in certs:
        with pytest.raises(TypeError):
            cert.quantities["beta2_d3"] = 0
        with pytest.raises(TypeError):
            del cert.quantities["beta1_d2"]
        assert type(_backing(cert)) is dict and _backing(cert) is not source
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


def test_equal_certificates_hash_equal():
    # == ignores the order of the quantities, so the hash must too: a
    # certificate rebuilt from sorted JSON, or a pickle clone, is the same
    # set member as the original
    verdicts = [classify(HVector(e)) for e in NOT_LEVEL_VECTORS + LEVEL_VECTORS]
    reordered = 0
    for verdict in verdicts:
        for cert in verdict.certificates:
            from_json = Certificate(**json.loads(json.dumps(cert.as_dict(), sort_keys=True)))
            reordered += list(from_json.quantities) != list(cert.quantities)
            for twin in (from_json, pickle.loads(pickle.dumps(cert))):
                assert twin == cert and hash(twin) == hash(cert)
        assert len({verdict, pickle.loads(pickle.dumps(verdict))}) == 1
    assert reordered
    pairs = [("beta1_d2", 2), ("beta2_d2", 2), ("beta2_d3", 1)]
    forward, backward = Certificate(R_31, 5, pairs), Certificate(R_31, 5, pairs[::-1])
    assert forward == backward and hash(forward) == hash(backward)
    assert len({forward, backward, Certificate(R_31, 6, pairs)}) == 2


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
    # the lex generator counts are the only validation classify runs on
    # valid input (a cached column was validated when it was computed), and
    # the R-LEVEL-DIFF growth check rides the rule loop
    def forbidden(*args, **kwargs):
        raise AssertionError("classify must not call growth_violation")

    monkeypatch.setattr(hvectors, "growth_violation", forbidden)
    monkeypatch.setattr(classify_module, "growth_violation", forbidden)
    kinds = {classify(h).kind for h in enumerate_o_sequences(5, 12)}
    assert kinds == {LEVEL, NOT_LEVEL, UNKNOWN}


def _assert_matches_two_pass_twin(h):
    fast, slow = classify(h), classify_by_columns(h)
    assert fast == slow, h
    # the JSON bytes pin the certificate order and each one's quantity order
    assert json.dumps(fast.as_dict()) == json.dumps(slow.as_dict()), h


@pytest.mark.parametrize("s", range(2, 8))
def test_classify_matches_two_pass_twin_exhaustive(s):
    vectors = list(enumerate_o_sequences(s, 20))
    for h in vectors:
        _assert_matches_two_pass_twin(h)
    # no verdict may depend on what the column cache held: start it empty
    # and meet the columns in the other order
    betti._lex_column.cache_clear()
    for h in reversed(vectors):
        _assert_matches_two_pass_twin(h)
    info = betti._lex_column.cache_info()
    assert info.maxsize == binomials._CACHE_ENTRIES
    assert 0 < info.currsize <= info.maxsize
    # the two bound caches share that one finite bound
    for bound in (binomials.macaulay_bound, binomials.green_bound):
        info = bound.cache_info()
        assert info.maxsize == binomials._CACHE_ENTRIES
        assert 0 < info.currsize <= info.maxsize


@settings(max_examples=200, deadline=None)
@given(family_and_walk_vectors())
@example(family_hvector(96, 40))
def test_classify_matches_two_pass_twin_property(h):
    _assert_matches_two_pass_twin(h)


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


def _pure(*exponents):
    return frozenset(Monomial(*e) for e in exponents)


# A nonempty set W of degree-s monomials.  The monomials that divide no
# element of W form an ideal I whose quotient is level of socle degree s and
# type |W| over every field: its standard monomials are the divisors of W,
# and its socle is their maximal elements, W itself.  So h_i, the number of
# degree-i divisors of W, is a level h-vector (a pure O-sequence).
PURE_SETS = st.integers(2, 6).flatmap(
    lambda s: st.frozensets(st.sampled_from(monomials_of_degree(s)), min_size=1)
)


@settings(max_examples=200, deadline=None)
@given(PURE_SETS)
# one W for each pure O-sequence that classify leaves Unknown at s <= 3
@example(_pure((2, 0, 0), (0, 1, 1)))  # (1, 3, 2)
@example(_pure((1, 1, 1)))  # (1, 3, 3, 1)
@example(_pure((3, 0, 0), (0, 2, 1)))  # (1, 3, 3, 2)
@example(_pure((3, 0, 0), (1, 1, 1)))  # (1, 3, 4, 2)
@example(_pure((3, 0, 0), (2, 1, 0), (1, 1, 1)))  # (1, 3, 4, 3)
@example(_pure((3, 0, 0), (1, 2, 0), (1, 1, 1)))  # (1, 3, 5, 3)
@example(_pure((3, 0, 0), (2, 1, 0), (2, 0, 1), (0, 2, 1)))  # (1, 3, 5, 4)
@example(_pure((2, 1, 0), (1, 0, 2), (0, 2, 1)))  # (1, 3, 6, 3)
@example(_pure((3, 0, 0), (2, 1, 0), (1, 0, 2), (0, 2, 1)))  # (1, 3, 6, 4)
@example(_pure((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 1, 2)))  # (1, 3, 6, 5)
def test_pure_o_sequences_are_never_not_level(w):
    s = next(iter(w)).degree
    standard = {
        d for m in w for d in product(range(m.e1 + 1), range(m.e2 + 1), range(m.e3 + 1))
    }
    h = tuple(sum(1 for d in standard if sum(d) == i) for i in range(s + 1))
    assume(h[1] == 3)
    assert classify(HVector(h)).kind != NOT_LEVEL, (h, w)
    # the monomial layer reads h, and the oracle the socle, off I
    ideal = MonomialIdeal(
        m for t in range(s + 2) for m in monomials_of_degree(t) if m not in standard
    )
    assert quotient_hf(ideal, s + 1) == h + (0,), w
    direct = oracle.colon_and_socle_dims(ideal, s + 1)
    assert {t: n for t, (_, n) in enumerate(direct) if n} == {s: len(w)}, w


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
