"""Evidence: bundle assembly, canonical serialization, replay, consistency."""

import hashlib
import json
import math
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcea import adversary, cli, crypto, evidence, platform, td, tpm, verifier
from dcea.errors import IncompleteBundle, ParseError

from support import empty_intern_tables, rand_cert, random_bundle, verify_once
from test_platform import make_platform
from test_td import make_qe


def _fold_digests(digests):
    acc = b"\x00" * 48
    for d in digests:
        acc = hashlib.sha384(acc + d).digest()
    return acc


GUEST_BOOT = (
    (0, 1, b"fw-config", "fw config"),
    (0, 7, b"boot-services", "boot services"),
    (1, 2, b"kernel", "kernel"),
    (1, 3, b"initrd", "initrd"),
    (2, 8, b"agent", "agent"),
)


def honest_pieces(guest_boot=GUEST_BOOT):
    """Launch a platform, boot a guest against its vTPM, collect artifacts."""
    plat, ca = make_platform()
    vtpm = platform.instantiate_vtpm(plat, ca, b"vtpm-seed")
    handle = tpm.default_ak_handle(vtpm)
    ak_pub = vtpm.aks[handle].keypair.public
    guest = td.td_launch(plat, b"guest-firmware", ak_pub=ak_pub)
    vtpm = tpm.pcr_extend_digest(
        vtpm, 0, guest.mrtd, "td firmware", scope=tpm.Scope.GUEST
    )
    for rtmr, pcr, payload, desc in guest_boot:
        ev = td.GuestEvent(rtmr, pcr, crypto.digest(payload), desc)
        guest = td.rtmr_extend(guest, ev)
        vtpm = tpm.pcr_extend_digest(
            vtpm, pcr, ev.event_digest, desc, scope=tpm.Scope.GUEST, rtmr_index=rtmr
        )
    qe, qe_chain, _ = make_qe()
    td_nonce, tpm_nonce = b"\x0a" * 32, b"\x0b" * 32
    report = td.td_report(
        guest, evidence.encode_report_data(td_nonce), qe, qe_chain
    )
    quote = tpm.tpm_quote(vtpm, handle, list(range(16)) + [17, 18], tpm_nonce)
    log = tuple(e for e in vtpm.log if e.scope is tpm.Scope.HOST) + guest.guest_log
    return plat, vtpm, guest, report, quote, log, ca


def honest_bundle():
    plat, vtpm, guest, report, quote, log, ca = honest_pieces()
    root = crypto.issue_cert(ca, ca.public, {"role": "root"})
    handle = tpm.default_ak_handle(vtpm)
    return evidence.EvidenceBundle(
        td_report=report,
        tpm_quote=quote,
        ek_cert_chain=crypto.CertChain((vtpm.ek_cert, root)),
        ak_cert=vtpm.aks[handle].ak_cert,
        event_log=log,
        nonces=evidence.Nonces(b"\x0a" * 32, b"\x0b" * 32),
        timing=evidence.Timing(0.0, 374.0, 324.0),
        scenario_meta={"scenario": "honest", "platform_id": plat.id},
    )


# -- serialization -----------------------------------------------------------

def test_roundtrip_identity_honest():
    bundle = honest_bundle()
    data = evidence.serialize(bundle)
    assert evidence.deserialize(data) == bundle


def test_serialization_is_canonical():
    assert evidence.serialize(honest_bundle()) == evidence.serialize(honest_bundle())
    obj = json.loads(evidence.serialize(honest_bundle()))
    assert obj["format_version"] == evidence.FORMAT_VERSION
    assert list(obj) == sorted(obj)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_identity_random(seed):
    bundle = random_bundle(seed)
    assert evidence.deserialize(evidence.serialize(bundle)) == bundle


# strings json.dumps must escape: non-ASCII (one astral), quotes, backslashes,
# control characters, a line separator and a lone surrogate
HARD_TEXT = ("plain", "é", "naïve 𝄞", '"q"', "a\\b", "\x00\n\x1f", "\x7f", "\u2028", "\ud800")
# number spellings: a negative zero, exponent forms, the least subnormal, a Python int
HARD_TIMES = (-0.0, 1e16, 5e-324, 7, 0.1)


def hard_bundle(seed):
    """random_bundle(seed) with hard strings in every free-text field and
    string map, hard timings, and, by seed, no event log or no ak_cert."""
    rng = random.Random(seed)
    base = random_bundle(seed)

    def text():
        return "".join(rng.choices(HARD_TEXT, k=rng.randrange(1, 4)))

    def strings():
        # " " sorts before "\n", and "~" before "é", only once they are escaped
        keys = [" ", "\n", "~", "é"] + [text() for _ in range(rng.randrange(3))]
        return {key: text() for key in keys}

    def chain(certs):
        return crypto.CertChain(tuple(
            replace(cert, issuer_id=text(), claims=tuple(sorted(strings().items())))
            for cert in certs
        ))

    times = HARD_TIMES[seed % 5:] + HARD_TIMES[:seed % 5]
    report = base.td_report
    return replace(
        base,
        td_report=replace(report, ppid=text(), qe_chain=chain(report.qe_chain.certs)),
        ek_cert_chain=chain(base.ek_cert_chain.certs),
        ak_cert=None if seed % 4 == 0 else chain((base.ak_cert or rand_cert(rng),)).leaf,
        event_log=() if seed % 3 == 0 else tuple(
            replace(entry, description=text()) for entry in base.event_log
        ),
        timing=evidence.Timing(*times[:3]),
        scenario_meta=strings(),
    )


@pytest.mark.parametrize("seed", range(40))
def test_serialize_is_a_canonical_fixed_point_on_hard_values(seed):
    bundle = hard_bundle(seed)
    out = evidence.serialize(bundle)
    assert json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")).encode() == out
    assert evidence.deserialize(out) == bundle


@pytest.mark.parametrize("codec, value", [
    *[(evidence.NUMBER, v) for v in (True, False, 0, -1, 2**70, 1.0, 0.1, -0.0, 1e16, 5e-324,
                                     math.nan, math.inf, -math.inf)],
    *[(evidence.STRING, v) for v in HARD_TEXT + ("", "~")],
    (evidence.STRING_MAP, {" ": "a", "\n": "b", "~": "c", "é": "d", '"': "e", "\\": "f"}),
    (evidence.map_of(evidence.STRING, evidence.NUMBER), {"\x7f": 1, "~": 2.5, "é": -0.0}),
])
def test_leaf_and_map_encoders_write_what_json_dumps_writes(codec, value):
    assert codec.encode(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_parse_error_carries_offset():
    data = evidence.serialize(honest_bundle())
    with pytest.raises(ParseError) as exc:
        evidence.deserialize(data[: len(data) // 2])
    assert exc.value.offset > 0
    with pytest.raises(ParseError):
        evidence.deserialize(b"\xff\xfenot json")
    # the offset counts bytes: two-byte characters come before the error
    with pytest.raises(ParseError, match=r"^not valid JSON at byte 9: Expecting value$") as exc:
        evidence.deserialize('{"éé": x}'.encode())
    assert exc.value.offset == 9


def test_parse_error_on_schema_violations():
    obj = json.loads(evidence.serialize(honest_bundle()))
    del obj["tpm_quote"]
    with pytest.raises(ParseError):
        evidence.deserialize(json.dumps(obj).encode())

    obj2 = json.loads(evidence.serialize(honest_bundle()))
    obj2["format_version"] = 99
    with pytest.raises(ParseError):
        evidence.deserialize(json.dumps(obj2).encode())

    obj3 = json.loads(evidence.serialize(honest_bundle()))
    obj3["td_report"]["mrtd"] = "ab" * 47
    with pytest.raises(ParseError):
        evidence.deserialize(json.dumps(obj3).encode())

    # the decoder keeps EvidenceBundle's invariant
    obj4 = json.loads(evidence.serialize(honest_bundle()))
    obj4["ek_cert_chain"] = []
    with pytest.raises(ParseError, match=r"^\$: ek_cert_chain must hold at least one certificate$"):
        evidence.deserialize(json.dumps(obj4).encode())


FIXTURES = Path(__file__).parent / "fixtures"

# golden document -> its decoder
DECODERS = {
    "honest_s1.dcea.json": evidence.obj_to_bundle,
    "honest_s1.policy.json": lambda ctx: (
        verifier.POLICY.decode(ctx["policy"], "$"),
        verifier.CHALLENGE.decode(ctx["challenge"], "$"),
    ),
}


@pytest.mark.parametrize(
    "document, path, value",
    [
        ("honest_s1.dcea.json", ("format_version",), True),
        ("honest_s1.dcea.json", ("tpm_quote", "values", 0, 0), False),
        ("honest_s1.dcea.json", ("tpm_quote", "selection", 1), True),
        ("honest_s1.dcea.json", ("event_log", 0, "pcr_index"), False),
        ("honest_s1.dcea.json", ("timing", "quote_received"), True),
        ("honest_s1.dcea.json", ("timing", "quote_received"), float("-inf")),
        ("honest_s1.dcea.json", ("timing", "td_received"), float("inf")),
        ("honest_s1.dcea.json", ("timing", "challenge_sent"), float("nan")),
        ("honest_s1.dcea.json", ("timing", "challenge_sent"), 10**400),
        ("honest_s1.policy.json", ("policy", "rtt_threshold_ms"), True),
        ("honest_s1.policy.json", ("policy", "rtt_threshold_ms"), float("inf")),
        ("honest_s1.policy.json", ("challenge", "issued_at"), float("-inf")),
    ],
)
def test_decoders_reject_bools_as_numbers_and_non_finite_numbers(document, path, value):
    obj = json.loads((FIXTURES / document).read_text())
    decode = DECODERS[document]
    decode(obj)  # the golden document itself decodes, bool fields included
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ParseError):
        decode(json.loads(json.dumps(obj)))


DROP = object()  # a change that removes the key


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"event_digest": "zz"}, "$.event_log[3].event_digest: invalid hex"),
        ({"event_digest": "ab" * 47}, "$.event_log[3].event_digest: expected 48 bytes, got 47"),
        ({"description": 5}, "$.event_log[3].description: expected string"),
        ({"scope": "bios"}, "$.event_log[3].scope: unknown scope 'bios'"),
        ({"pcr_index": 24}, "$.event_log[3]: pcr index 24 out of range"),
        ({"rtmr_index": 4}, "$.event_log[3]: rtmr index 4 out of range"),
        ({"pcr_index": None}, "$.event_log[3]: entry must target a PCR, an RTMR, or both"),
        ({"description": DROP}, "$.event_log[3]: missing field 'description'"),
        ({"extra": 1}, "$.event_log[3]: unknown field 'extra'"),
        ({"scope": None}, "$.event_log[3].scope: expected string"),
        ({"pcr_index": True}, "$.event_log[3].pcr_index: expected integer"),
    ],
)
def test_event_log_parse_error_names_the_path_once(changes, message):
    obj = json.loads((FIXTURES / "honest_s1.dcea.json").read_text())
    entry = obj["event_log"][3]
    for key, value in changes.items():
        if value is DROP:
            del entry[key]
        else:
            entry[key] = value
    with pytest.raises(ParseError) as exc:
        evidence.obj_to_bundle(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"selection": [0]}, "$.tpm_quote: selection must list exactly the indices of values"),
        (
            {"selection": list(range(16)) + [17, 18, 23]},
            "$.tpm_quote: selection must list exactly the indices of values",
        ),
        ({"algorithm": "rsa"}, "$.tpm_quote.algorithm: unsupported algorithm 'rsa'"),
    ],
)
def test_quote_decoder_rejects_a_selection_or_algorithm_it_cannot_vouch_for(changes, message):
    obj = json.loads((FIXTURES / "honest_s1.dcea.json").read_text())
    evidence.obj_to_bundle(obj)
    obj["tpm_quote"].update(changes)
    with pytest.raises(ParseError) as exc:
        evidence.obj_to_bundle(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "value, message",
    [
        ([0], "$.tpm_quote.values[0]: expected a two-item array"),
        ([True, "<digest>"], "$.tpm_quote.values[0][0]: expected integer"),
        (["0", "<digest>"], "$.tpm_quote.values[0][0]: expected integer"),
        ([24, "<digest>"], "$.tpm_quote.values[0][0]: pcr index 24 out of range"),
        ([0, "ab" * 47], "$.tpm_quote.values[0][1]: expected 48 bytes, got 47"),
        ({"0": "<digest>"}, "$.tpm_quote.values: expected array"),
    ],
)
def test_quote_value_parse_error_names_the_path(value, message):
    obj = json.loads((FIXTURES / "honest_s1.dcea.json").read_text())
    values = obj["tpm_quote"]["values"]
    if isinstance(value, list):
        values[0] = [values[0][1] if v == "<digest>" else v for v in value]
    else:
        obj["tpm_quote"]["values"] = value
    with pytest.raises(ParseError) as exc:
        evidence.obj_to_bundle(obj)
    assert str(exc.value) == message


def _spaced(text):
    return " ".join(text[i:i + 2] for i in range(0, len(text), 2))


def _one_upper(text):
    i = next(i for i, c in enumerate(text) if c in "abcdef")
    return text[:i] + text[i].upper() + text[i + 1:]


@pytest.mark.parametrize(
    "document, path, spell, message",
    [
        ("honest_s1.dcea.json", ("td_report", "mrconfigid"), str.upper,
         "$.td_report.mrconfigid: hex must be lowercase"),
        ("honest_s1.dcea.json", ("event_log", 3, "event_digest"), _one_upper,
         "$.event_log[3].event_digest: hex must be lowercase"),
        ("honest_s1.dcea.json", ("tpm_quote", "values", 2, 1), _one_upper,
         "$.tpm_quote.values[2][1]: hex must be lowercase"),
        ("honest_s1.dcea.json", ("tpm_quote", "signature"), _spaced,
         "$.tpm_quote.signature: invalid hex"),
        ("honest_s1.dcea.json", ("ek_cert_chain", 0, "subject_public"), lambda t: t + " ",
         "$.ek_cert_chain[0].subject_public: invalid hex"),
        ("honest_s1.policy.json", ("challenge", "td_nonce"), str.upper,
         "$.td_nonce: hex must be lowercase"),
    ],
)
def test_decoders_accept_only_the_hex_that_serialize_writes(document, path, spell, message):
    obj = json.loads((FIXTURES / document).read_text())
    target = obj
    for key in path[:-1]:
        target = target[key]
    respelled = spell(target[path[-1]])
    assert respelled != target[path[-1]]
    assert bytes.fromhex(respelled) == bytes.fromhex(target[path[-1]])  # the same bytes
    target[path[-1]] = respelled
    with pytest.raises(ParseError) as exc:
        DECODERS[document](obj)
    assert str(exc.value) == message


# -- totality: a mutated golden bundle parses to a verdict or fails to parse --

GOLDEN = ("honest_s1", "honest_s2", "a5_ak_clone")


def _json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


_OTHER_TYPES = (None, True, 0, 1.5, "", "ab", [], {})

_OTHER_ROOTS = {"trusted_tee_roots": "trusted_provider_roots",
                "trusted_provider_roots": "trusted_tee_roots"}


@st.composite
def mutated_goldens(draw, document):
    """(pair name, a golden ``document`` JSON with one structural mutation)."""
    pair = draw(st.sampled_from(GOLDEN))
    obj = json.loads((FIXTURES / f"{pair}.{document}.json").read_text())
    path = draw(st.sampled_from(list(_json_paths(obj))[1:]))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kinds = ["retype"] + (["drop key"] if isinstance(parent, dict) else [])
    if isinstance(value, list):
        kinds += ["empty", "drop item", "duplicate item", "reorder"] if value else []
    if isinstance(value, str) and value:
        kinds.append("truncate")
    if len(path) == 3 and path[1] in _OTHER_ROOTS:  # a certificate in a root list
        kinds.append("swap roots")
    kind = draw(st.sampled_from(kinds))
    if kind == "retype":
        parent[key] = draw(st.sampled_from([v for v in _OTHER_TYPES if type(v) is not type(value)]))
    elif kind == "drop key":
        del parent[key]
    elif kind == "empty":
        parent[key] = []
    elif kind == "truncate":
        parent[key] = value[:draw(st.integers(0, len(value) - 1))]
    elif kind == "swap roots":
        other = obj["policy"][_OTHER_ROOTS[path[1]]]
        j = draw(st.integers(0, len(other) - 1))
        parent[key], other[j] = other[j], value
    else:
        i = draw(st.integers(0, len(value) - 1))
        if kind == "drop item":
            del value[i]
        elif kind == "duplicate item":
            value.insert(i, json.loads(json.dumps(value[i])))
        else:
            j = draw(st.integers(0, len(value) - 1))
            value[i], value[j] = value[j], value[i]
    return pair, obj


def warm_and_cold(golden, appraise):
    """``appraise()`` with the intern tables warmed by decoding the file
    ``golden``, then with them emptied: a ParseError's text or the verdict
    JSON, which must be the same both times."""
    outcomes = []
    for warm in (True, False):
        empty_intern_tables()
        if warm:
            if golden.name.endswith(".policy.json"):
                cli._load(str(golden))
            else:
                evidence.deserialize(golden.read_bytes())
        try:
            verdict = appraise()
        except ParseError as exc:
            outcomes.append(str(exc))
            continue
        assert isinstance(verdict, verifier.Verdict)
        outcomes.append(json.dumps(cli._verdict_obj(verdict), sort_keys=True))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=300, deadline=None)
@given(mutated_goldens("dcea"))
def test_mutated_golden_bundle_gives_a_parse_error_or_a_verdict(case):
    pair, obj = case
    ctx = cli._load(str(FIXTURES / f"{pair}.policy.json"))

    def appraise():
        bundle = evidence.deserialize(json.dumps(obj).encode())
        return verify_once(bundle, ctx.policy, ctx.challenge, ctx.registry)

    warm_and_cold(FIXTURES / f"{pair}.dcea.json", appraise)


@pytest.fixture(scope="module")
def context_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contexts") / "mutated.policy.json"


@settings(max_examples=300, deadline=None)
@given(case=mutated_goldens("policy"))
def test_mutated_golden_context_gives_a_parse_error_or_a_verdict(context_file, case):
    pair, obj = case
    context_file.write_bytes(json.dumps(obj).encode())
    bundle = evidence.deserialize((FIXTURES / f"{pair}.dcea.json").read_bytes())

    def appraise():
        ctx = cli._load(str(context_file))
        return verify_once(bundle, ctx.policy, ctx.challenge, ctx.registry)

    warm_and_cold(FIXTURES / f"{pair}.policy.json", appraise)


# -- intern tables: a hit only for the exact JSON value decoded before -------

@pytest.mark.parametrize(
    "path, change, message",
    [
        # true == 1 and 1.0 == 1 in Python: the warm entry has pcr_index 1, rtmr_index 0
        (("event_log", 6, "pcr_index"), lambda old: True, "$.event_log[6].pcr_index: expected integer"),
        (("event_log", 6, "rtmr_index"), lambda old: False, "$.event_log[6].rtmr_index: expected integer"),
        (("event_log", 6, "pcr_index"), float, "$.event_log[6].pcr_index: expected integer"),
        (("event_log", 6, "extra"), lambda old: "1", "$.event_log[6]: unknown field 'extra'"),
        (("ek_cert_chain", 1, "extra"), lambda old: "1", "$.ek_cert_chain[1]: unknown field 'extra'"),
        (("ek_cert_chain", 0, "claims", "tpm_kind"), lambda old: [old],
         "$.ek_cert_chain[0].claims: must map strings to strings"),
        (("ek_cert_chain", 0, "issuer_id"), lambda old: [old],
         "$.ek_cert_chain[0].issuer_id: expected string"),
        (("td_report", "mrtd"), str.upper, "$.td_report.mrtd: hex must be lowercase"),
        (("event_log", 6, "event_digest"), str.upper,
         "$.event_log[6].event_digest: hex must be lowercase"),
    ],
)
def test_a_warm_table_decodes_a_changed_value_as_an_empty_one_does(path, change, message):
    obj = json.loads((FIXTURES / "honest_s1.dcea.json").read_text())
    evidence.obj_to_bundle(obj)
    assert all(evidence._INTERNED)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = change(parent.get(path[-1]))
    for tables in ("warm", "empty"):
        with pytest.raises(ParseError) as exc:
            evidence.obj_to_bundle(obj)
        assert str(exc.value) == message, tables
        empty_intern_tables()


def test_intern_tables_fill_to_their_bound_and_keep_what_they_hold():
    golden = evidence.deserialize((FIXTURES / "honest_s1.dcea.json").read_bytes())
    seen = [set(), set(), set()]
    for seed in range(120):
        bundle = evidence.deserialize(evidence.serialize(random_bundle(seed)))
        seen[0].update(bundle.td_report.rtmrs)
        seen[1].update(bundle.ek_cert_chain.certs + bundle.td_report.qe_chain.certs)
        seen[2].update(bundle.event_log)
        assert all(len(table) <= evidence.MAX_INTERNED for table in evidence._INTERNED)
    assert all(len(values) > evidence.MAX_INTERNED for values in seen)
    assert [len(table) for table in evidence._INTERNED] == [evidence.MAX_INTERNED] * 3
    again = evidence.deserialize((FIXTURES / "honest_s1.dcea.json").read_bytes())
    assert again.td_report.mrtd is golden.td_report.mrtd
    assert again.ek_cert_chain.certs[0] is golden.ek_cert_chain.certs[0]
    assert again.event_log[0] is golden.event_log[0]


def _interned_values(bundle):
    """Every certificate, event-log entry and register digest of ``bundle``."""
    certs = bundle.td_report.qe_chain.certs + bundle.ek_cert_chain.certs + (bundle.ak_cert,)
    digests = (bundle.td_report.mrtd,) + bundle.td_report.rtmrs
    return certs + bundle.event_log + digests + tuple(v for _, v in bundle.tpm_quote.values)


@pytest.mark.parametrize("pair", GOLDEN)
def test_a_second_decode_shares_every_repeated_value(pair):
    data = (FIXTURES / f"{pair}.dcea.json").read_bytes()
    first, second = (_interned_values(evidence.deserialize(data)) for _ in range(2))
    assert len(first) == len(second) > 30
    assert None not in first
    for i, (a, b) in enumerate(zip(first, second)):
        assert a is b, (i, a)


# -- interned values keep the text they were first written as ----------------

# every record's encoder shares this code object; the value it renders is its argument
RECORD_ENCODE = evidence._CERT.encode.__code__
KEEPS_TEXT = (crypto.Certificate, tpm.EventLogEntry)


def renders(action):
    """The certificates and event-log entries ``action()`` renders to text, in order."""
    seen = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is RECORD_ENCODE:
            value = frame.f_locals["value"]
            if isinstance(value, KEEPS_TEXT):
                seen.append(value)

    sys.setprofile(hook)
    try:
        action()
    finally:
        sys.setprofile(None)
    return seen


def _certs_and_entries(bundle):
    return [v for v in _interned_values(bundle) if isinstance(v, KEEPS_TEXT)]


def test_a_second_serialize_renders_no_certificate_or_entry_again():
    bundle = honest_bundle()
    first = renders(lambda: evidence.serialize(bundle))
    assert sorted(map(id, first)) == sorted(map(id, _certs_and_entries(bundle)))
    data = evidence.serialize(bundle)
    assert renders(lambda: evidence.serialize(bundle)) == []
    assert evidence.serialize(bundle) == data


@pytest.mark.parametrize("pair", GOLDEN)
def test_a_bundle_decoded_from_warm_tables_renders_nothing(pair):
    golden = (FIXTURES / f"{pair}.dcea.json").read_bytes()
    assert renders(lambda: evidence.deserialize(golden)) == []
    first = evidence.deserialize(golden)
    assert len(renders(lambda: evidence.serialize(first))) == len(_certs_and_entries(first)) > 10
    again = evidence.deserialize(golden)
    assert renders(lambda: evidence.serialize(again)) == []
    assert evidence.serialize(again) == golden


def test_kept_text_is_rendered_from_the_value_not_copied_from_the_input():
    golden = (FIXTURES / "honest_s1.dcea.json").read_bytes()
    spaced = json.dumps(json.loads(golden), indent=1).encode()  # same values, other bytes
    for data in (spaced, golden):
        empty_intern_tables()
        assert evidence.serialize(evidence.deserialize(data)) == golden


def test_a_value_with_kept_text_compares_hashes_and_reprs_as_a_fresh_one():
    bundle = honest_bundle()
    evidence.serialize(bundle)
    for value in _certs_and_entries(bundle):
        fresh = replace(value)
        assert evidence._TEXT in vars(value) and evidence._TEXT not in vars(fresh)
        assert fresh == value and hash(fresh) == hash(value) and repr(fresh) == repr(value)


def test_replace_builds_a_value_that_renders_again():
    bundle = honest_bundle()
    evidence.serialize(bundle)
    changed = replace(bundle.event_log[0], description="changed")
    cert = replace(bundle.ek_cert_chain.leaf, issuer_id="changed")
    rebuilt = replace(
        bundle,
        event_log=(changed,) + bundle.event_log[1:],
        ek_cert_chain=crypto.CertChain((cert,) + bundle.ek_cert_chain.certs[1:]),
    )
    assert [id(v) for v in renders(lambda: evidence.serialize(rebuilt))] == [id(cert), id(changed)]
    obj = json.loads(evidence.serialize(rebuilt))
    assert obj["event_log"][0]["description"] == obj["ek_cert_chain"][0]["issuer_id"] == "changed"


def test_build_bundle_missing_mandatory():
    # a bundle needs at least the EK certificate to anchor its vTPM
    bundle = honest_bundle()
    with pytest.raises(IncompleteBundle):
        replace(bundle, ek_cert_chain=crypto.CertChain(()))


# -- report_data layout ------------------------------------------------------

def test_encode_report_data_layout():
    nonce = b"\x0c" * 32
    plain = evidence.encode_report_data(nonce)
    assert plain[:32] == nonce and plain[32:] == b"\x00" * 32
    bound = evidence.encode_report_data(nonce, binding=b"\xee" * 32)
    assert bound[32:] == b"\xee" * 32
    with pytest.raises(ValueError):
        evidence.encode_report_data(b"\x0c" * 31)


def test_encode_report_data_rejects_short_binding():
    with pytest.raises(ValueError, match="binding tail must be 32 bytes"):
        evidence.encode_report_data(b"\x0c" * 32, binding=b"\xee" * 31)


# -- replay ------------------------------------------------------------------

def test_replay_empty_log_all_zero():
    pcrs, rtmrs = evidence.replay_event_log(())
    assert all(v == crypto.ZERO_DIGEST for v in pcrs)
    assert all(v == crypto.ZERO_DIGEST for v in rtmrs)


def test_replay_reproduces_live_views():
    _, vtpm, guest, _, quote, log, _ = honest_pieces()
    pcrs, rtmrs = evidence.replay_event_log(log)
    assert pcrs == vtpm.pcrs.registers
    assert rtmrs == guest.rtmrs


def test_replay_scope_filters():
    _, vtpm, guest, _, _, log, _ = honest_pieces()
    host_pcrs, host_rtmrs = evidence.replay_event_log(log, scope=tpm.Scope.HOST)
    assert host_pcrs[17] == vtpm.pcrs.value(17)
    assert host_pcrs[2] == crypto.ZERO_DIGEST  # guest events filtered out
    assert all(v == crypto.ZERO_DIGEST for v in host_rtmrs)
    guest_pcrs, guest_rtmrs = evidence.replay_event_log(log, scope=tpm.Scope.GUEST)
    assert guest_pcrs[17] == crypto.ZERO_DIGEST
    assert guest_rtmrs == guest.rtmrs


def test_replay_matches_hashlib_oracle_per_register():
    _, _, _, _, _, log, _ = honest_pieces()
    pcrs, rtmrs = evidence.replay_event_log(log)
    want_pcr2 = _fold_digests(
        [e.event_digest.data for e in log if e.pcr_index == 2]
    )
    want_rtmr1 = _fold_digests(
        [e.event_digest.data for e in log if e.rtmr_index == 1]
    )
    assert pcrs[2].data == want_pcr2
    assert rtmrs[1].data == want_rtmr1


def test_replay_memo_answers_only_the_same_entry_objects_under_the_same_scope():
    world = adversary.build_world(adversary.WorldConfig(seed=11))
    log = evidence.deserialize(evidence.serialize(adversary.attest_honest(world).bundle)).event_log
    memo = {}
    first = evidence.replay_event_log(log, memo=memo)
    assert evidence.replay_event_log(list(log), memo=memo) is first
    host = evidence.replay_event_log(log, scope=tpm.Scope.HOST, memo=memo)
    assert host == evidence.replay_event_log(log, scope=tpm.Scope.HOST) != first
    assert len(memo) == 2
    # equal entries that no intern table holds are replayed and not stored
    copies = evidence.replay_event_log(tuple(replace(e) for e in log), memo=memo)
    assert copies == first and copies is not first
    assert len(memo) == 2


# -- consistency -------------------------------------------------------------

def test_consistency_honest_all_rows_match():
    _, _, _, report, quote, log, _ = honest_pieces()
    result = evidence.check_rtmr_pcr_consistency(report, quote, log)
    assert result.all_matched
    assert [r.tdx_register for r in result.rows] == ["MRTD", "RTMR0", "RTMR1", "RTMR2"]
    assert result.rows[0].pcr_indices == (0,)
    assert result.rows[1].pcr_indices == (1, 7)
    assert result.rows[2].pcr_indices == (2, 3, 4, 5)
    assert result.rows[3].pcr_indices == tuple(range(8, 16))


def test_consistency_detects_pcr_side_divergence():
    # vTPM saw a different kernel digest than the TD recorded.
    plat, ca = make_platform()
    vtpm = platform.instantiate_vtpm(plat, ca, b"vtpm-seed")
    handle = tpm.default_ak_handle(vtpm)
    guest = td.td_launch(plat, b"guest-firmware", ak_pub=vtpm.aks[handle].keypair.public)
    vtpm = tpm.pcr_extend_digest(vtpm, 0, guest.mrtd, "td firmware", scope=tpm.Scope.GUEST)
    ev = td.GuestEvent(1, 2, crypto.digest(b"kernel"), "kernel")
    guest = td.rtmr_extend(guest, ev)
    vtpm = tpm.pcr_extend_digest(
        vtpm, 2, crypto.digest(b"tampered-kernel"), "kernel",
        scope=tpm.Scope.GUEST, rtmr_index=1,
    )
    qe, qe_chain, _ = make_qe()
    report = td.td_report(guest, evidence.encode_report_data(b"\x00" * 32), qe, qe_chain)
    quote = tpm.tpm_quote(vtpm, handle, list(range(16)) + [17, 18], b"\x01" * 32)
    log = tuple(e for e in vtpm.log if e.scope is tpm.Scope.HOST) + guest.guest_log
    result = evidence.check_rtmr_pcr_consistency(report, quote, log)
    assert not result.all_matched
    broken = {r.tdx_register for r in result.rows if not r.matched}
    assert broken == {"RTMR1"}


def test_consistency_single_entry_deletion_flips_a_row():
    _, _, _, report, quote, log, _ = honest_pieces()
    guest_positions = [i for i, e in enumerate(log) if e.scope is tpm.Scope.GUEST]
    for pos in guest_positions:
        clipped = log[:pos] + log[pos + 1 :]
        result = evidence.check_rtmr_pcr_consistency(report, quote, clipped)
        assert not result.all_matched, f"deleting entry {pos} went unnoticed"


def test_consistency_requires_quote_coverage():
    # A quote that omits the mapped PCRs cannot demonstrate consistency.
    _, vtpm, _, report, _, log, _ = honest_pieces()
    handle = tpm.default_ak_handle(vtpm)
    narrow = tpm.tpm_quote(vtpm, handle, [17, 18], b"\x0b" * 32)
    result = evidence.check_rtmr_pcr_consistency(report, narrow, log)
    assert not result.all_matched
