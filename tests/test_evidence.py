"""Evidence: bundle assembly, canonical serialization, replay, consistency."""

import functools
import hashlib
import json
import math
import random
import re
import sys
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcea import adversary, cli, crypto, evidence, platform, td, tpm, verifier
from dcea.errors import IncompleteBundle, ParseError

from support import empty_held_texts, rand_cert, random_bundle, verify_once
from test_adversary import CELL_DIGESTS, attest_cell
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
    vtpm = tpm.pcr_extend_digest(vtpm, guest.guest_log[0])
    for rtmr, pcr, payload, desc in guest_boot:
        entry = tpm.EventLogEntry(pcr, crypto.digest(payload), desc, tpm.Scope.GUEST, rtmr)
        guest = td.rtmr_extend(guest, entry)
        vtpm = tpm.pcr_extend_digest(vtpm, entry)
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
    *[(evidence.NUMBER, v) for v in (True, False, 0, -1, 2**70, 1.0, 0.1, -0.0, 1e16, 5e-324)],
    *[(evidence.STRING, v) for v in HARD_TEXT + ("", "~")],
    (evidence.STRING_MAP, {" ": "a", "\n": "b", "~": "c", "é": "d", '"': "e", "\\": "f"}),
    (evidence.map_of(evidence.STRING, evidence.NUMBER), {"\x7f": 1, "~": 2.5, "é": -0.0}),
])
def test_leaf_and_map_encoders_write_what_json_dumps_writes(codec, value):
    assert codec.encode(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_serialize_refuses_numbers_no_decoder_reads(value):
    # json.dumps would write NaN or Infinity, which every decoder here refuses
    bundle = honest_bundle()
    with pytest.raises(ValueError, match="has no canonical JSON form"):
        evidence.serialize(replace(bundle, timing=replace(bundle.timing, td_received=value)))


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
    # nesting deeper than the parser's stack is a parse error too, not a RecursionError
    for decode in (evidence.deserialize, evidence.load_json):
        with pytest.raises(ParseError, match=r"^not valid JSON: nested too deeply$"):
            decode(b"[" * 1000 + b"]" * 1000)


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


def appraised(appraise):
    """A ParseError's text, or the JSON of the verdict ``appraise()`` returns."""
    try:
        verdict = appraise()
    except ParseError as exc:
        return str(exc)
    assert isinstance(verdict, verifier.Verdict)
    return json.dumps(cli._verdict_obj(verdict), sort_keys=True)


def warm_and_cold(golden, appraise):
    """``appraise()`` with the held texts warmed by decoding the bundle file
    ``golden``, then with them emptied, which must give the same outcome."""
    outcomes = []
    for warm in (True, False):
        empty_held_texts()
        if warm:
            evidence.deserialize(golden.read_bytes())
        outcomes.append(appraised(appraise))
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

    appraised(appraise)  # a context decodes with no state: one appraisal is the whole check


# -- a changed value fails at its path, with its reason ----------------------

@pytest.mark.parametrize(
    "path, change, message",
    [
        # true == 1 and 1.0 == 1 in Python: the entry has pcr_index 1, rtmr_index 0
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
def test_a_changed_value_fails_at_its_path_with_its_reason(path, change, message):
    obj = json.loads((FIXTURES / "honest_s1.dcea.json").read_text())
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = change(parent.get(path[-1]))
    with pytest.raises(ParseError) as exc:
        evidence.obj_to_bundle(obj)
    assert str(exc.value) == message


# the six arrays and objects of a bundle that the reader holds
HELD_VALUES = attrgetter("ak_cert", "ek_cert_chain", "event_log", "td_report.qe_chain",
                         "td_report.rtmrs", "tpm_quote.values")


def _repeated_values(bundle):
    """Every certificate, event-log entry and register digest of ``bundle``
    that one of its held values holds: all of them but MRTD."""
    certs = bundle.td_report.qe_chain.certs + bundle.ek_cert_chain.certs + (bundle.ak_cert,)
    digests = bundle.td_report.rtmrs + tuple(v for _, v in bundle.tpm_quote.values)
    return certs + bundle.event_log + digests


@pytest.mark.parametrize("pair", GOLDEN)
def test_a_second_decode_shares_the_six_held_values(pair):
    data = (FIXTURES / f"{pair}.dcea.json").read_bytes()
    first, second = evidence.deserialize(data), evidence.deserialize(data)
    assert all(a is b for a, b in zip(HELD_VALUES(first), HELD_VALUES(second)))
    repeated = list(zip(_repeated_values(first), _repeated_values(second)))
    assert len(repeated) > 30
    assert None not in [a for a, _ in repeated]
    for i, (a, b) in enumerate(repeated):
        assert a is b, (i, a)
    # MRTD is no array or object, so the reader parses it again: equal, not shared
    assert second.td_report.mrtd == first.td_report.mrtd
    assert second.td_report.mrtd is not first.td_report.mrtd


def _decoded_objects(bundle):
    """Every certificate, event-log entry and digest object of ``bundle``."""
    return (_repeated_values(bundle) + (bundle.td_report.mrtd,)
            + tuple(entry.event_digest for entry in bundle.event_log))


def test_the_full_path_holds_no_state():
    data = (FIXTURES / "honest_s1.dcea.json").read_bytes()
    held = evidence.deserialize(data)  # the reader now holds this document's six values
    texts = dict(evidence._HELD)
    obj = json.loads(data)
    first, second = evidence.obj_to_bundle(obj), evidence.obj_to_bundle(obj)
    assert first == second == held
    ids = [set(map(id, _decoded_objects(bundle))) for bundle in (first, second, held)]
    assert len(ids[0]) > 40
    assert not ids[0] & ids[1] and not ids[0] & ids[2] and not ids[1] & ids[2]
    assert evidence._HELD == texts


def test_a_second_decode_parses_no_repeated_array_or_object(monkeypatch):
    # the reader finds the held texts: no json.loads, and only the values that
    # are short (the quote selection) or mutable (scenario_meta) are parsed again
    data = (FIXTURES / "honest_s1.dcea.json").read_bytes()
    first, obj = evidence.deserialize(data), json.loads(data)
    loads, scanned = [], []
    real_scan = evidence._scan
    monkeypatch.setattr(json, "loads", lambda *args, **kw: loads.append(args))

    def scan(text, pos):
        obj, end = real_scan(text, pos)
        scanned.append(obj)
        return obj, end

    monkeypatch.setattr(evidence, "_scan", scan)
    second = evidence.deserialize(data)
    assert loads == []
    assert [value for value in scanned if isinstance(value, (list, dict))] == [
        obj["scenario_meta"], obj["tpm_quote"]["selection"]]
    assert all(a is b for a, b in zip(HELD_VALUES(second), HELD_VALUES(first)))
    assert second == first


def _reversed_keys(value):
    if isinstance(value, dict):
        return {k: _reversed_keys(value[k]) for k in sorted(value, reverse=True)}
    if isinstance(value, list):
        return [_reversed_keys(v) for v in value]
    return value


def _with_a_duplicate(value, at, path=()):
    """Canonical text of the JSON ``value`` in which the object at ``at`` writes its
    first key again, last."""
    if isinstance(value, dict):
        parts = [json.dumps(k) + ":" + _with_a_duplicate(v, at, path + (k,))
                 for k, v in sorted(value.items())]
        if path == at:
            parts.append(parts[0])
        return "{" + ",".join(parts) + "}"
    if isinstance(value, list):
        return "[" + ",".join(_with_a_duplicate(v, at, path + (i,)) for i, v in enumerate(value)) + "]"
    return json.dumps(value)


def _spots(text, pattern):
    return [m.span() for m in re.finditer(pattern, text)]


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def reader_inputs(draw):
    """(a canonical bundle, a document made from it): a golden or random bundle,
    unchanged or with one change that serialize would never write."""
    source = draw(st.one_of(st.sampled_from(GOLDEN), st.integers(0, 2**32 - 1)))
    if isinstance(source, str):
        data = (FIXTURES / f"{source}.dcea.json").read_bytes()
    else:
        data = evidence.serialize(random_bundle(source))
    text = data.decode()
    kind = draw(st.sampled_from(["none", "byte", "indent", "reversed", "duplicate", "one",
                                 "upper", "escape", "trailing"]))
    if kind == "byte":
        i = draw(st.integers(0, len(data) - 1))
        flip = draw(st.integers(1, 255))
        return data, data[:i] + bytes([data[i] ^ flip]) + data[i + 1:]
    if kind == "indent":
        return data, json.dumps(json.loads(data), indent=1).encode()
    if kind == "reversed":
        return data, json.dumps(_reversed_keys(json.loads(data)), separators=(",", ":")).encode()
    if kind == "duplicate":
        obj = json.loads(data)
        assert _with_a_duplicate(obj, None) == text
        at = draw(st.sampled_from([p for p in _json_paths(obj) if isinstance(_at(obj, p), dict)
                                   and _at(obj, p)]))
        return data, _with_a_duplicate(obj, at).encode()
    spots, spell = {
        "one": (_spots(text, r"(?<=[:\[,])1(?=[,\]}])"), lambda s: draw(st.sampled_from(["true", "1.0"]))),
        "upper": (_spots(text, r"(?<=\")[0-9]*[a-f]"), str.upper),
        "escape": (_spots(text, r"[a-z]"), lambda s: f"\\u{ord(s):04x}"),
        "trailing": ([(len(text), len(text))], lambda s: draw(st.sampled_from([" ", "\n", "\t"]))),
        "none": ([(0, 0)], lambda s: s),
    }[kind]
    start, end = draw(st.sampled_from(spots))
    return data, (text[:start] + spell(text[start:end]) + text[end:]).encode()


def _decoded(decode, data):
    """What ``decode(data)`` returns, or the type, text and offset of what it raises."""
    try:
        return decode(data)
    except Exception as exc:  # any outcome must match the full path's
        return type(exc), str(exc), getattr(exc, "offset", None)


def _full_path(data):
    return evidence.obj_to_bundle(evidence.load_json(data))


@settings(max_examples=400, deadline=None)
@given(reader_inputs())
def test_the_reader_decodes_as_the_full_path_does_from_warm_and_empty_tables(case):
    original, data = case
    for warm in (True, False):
        empty_held_texts()
        if warm:
            evidence.deserialize(original)
            assert evidence._HELD
        got = _decoded(evidence.deserialize, data)
        assert got == _decoded(_full_path, data), warm
        if isinstance(got, evidence.EvidenceBundle):
            assert got == evidence.deserialize(data)  # a second decode, from what the first held


@st.composite
def decode_inputs(draw):
    """A document from ``reader_inputs``, or its canonical bundle with one
    value changed: to another JSON type, a string cut short or in upper case,
    an integer or a number out of range, an integer spelt as a float or a
    bool, an array one item short or longer than the log cap, an object short
    of a key or with a key more."""
    original, data = draw(reader_inputs())
    cap = evidence.MAX_LOG_ENTRIES

    def drop_key(value):
        gone = draw(st.sampled_from(sorted(value)))
        return {k: v for k, v in value.items() if k != gone}

    changes = {
        "retype": (lambda v: True, lambda v: draw(st.sampled_from(
            [other for other in _OTHER_TYPES if type(other) is not type(v)]))),
        "truncate": (lambda v: isinstance(v, str) and v,
                     lambda v: v[:draw(st.integers(0, len(v) - 1))]),
        "uppercase": (lambda v: isinstance(v, str) and v != v.upper(), str.upper),
        "renumber": (lambda v: type(v) is int, lambda v: draw(st.sampled_from([-1, 2, 24, 2**64]))),
        "respell": (lambda v: type(v) is int, lambda v: draw(st.sampled_from([float(v), v == 1]))),
        "non-finite": (lambda v: type(v) is float,
                       lambda v: draw(st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))),
        "shorten": (lambda v: isinstance(v, list) and v, lambda v: v[1:]),
        "lengthen": (lambda v: isinstance(v, list) and len(v) > 2,  # not a pair
                     lambda v: (v * (cap + 1))[:cap + 1]),
        "drop key": (lambda v: isinstance(v, dict) and v, drop_key),
        "extra key": (lambda v: isinstance(v, dict),
                      lambda v: {**v, "extra": draw(st.sampled_from(_OTHER_TYPES))}),
    }
    kind = draw(st.sampled_from(["reader", *changes]))
    if kind == "reader":
        return data
    fits, change = changes[kind]
    obj = json.loads(original)
    *path, key = draw(st.sampled_from([p for p in _json_paths(obj) if p and fits(_at(obj, p))]))
    parent = _at(obj, path)
    parent[key] = change(parent[key])
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@functools.lru_cache(maxsize=None)
def full_held_texts():
    """A copy of the held texts, filled to their bound by decoding the goldens
    and then random bundles."""
    for pair in GOLDEN:
        evidence.deserialize((FIXTURES / f"{pair}.dcea.json").read_bytes())
    for seed in range(60):
        evidence.deserialize(evidence.serialize(random_bundle(seed)))
    assert len(evidence._HELD) == evidence.MAX_HELD
    held = dict(evidence._HELD)
    empty_held_texts()
    return held


def _outcome(decode, value):
    """The repr of what ``decode(value)`` returns, or the type and text of what it raises."""
    try:
        return repr(decode(value))
    except Exception as exc:  # any outcome must match the full path's
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(decode_inputs())
def test_the_reader_decodes_as_obj_to_bundle_from_empty_and_full_held_texts(data):
    try:
        obj = evidence.load_json(data)
    except ParseError:
        return  # no JSON value to decode
    want = _outcome(evidence.obj_to_bundle, obj)
    for held in ({}, full_held_texts()):
        evidence._HELD.clear()
        evidence._HELD.update(held)
        assert _outcome(evidence.deserialize, data) == want


def test_the_reader_reads_every_golden_and_live_cell_document_to_its_end():
    # the full path would hide a reader that gives up: call the reader directly
    assert len(CELL_DIGESTS) == 15  # one bundle of each live cell
    for data in [(FIXTURES / f"{pair}.dcea.json").read_bytes() for pair in GOLDEN] + [
            evidence.serialize(attest_cell(sid, dep, seed=0).bundle) for sid, dep in CELL_DIGESTS]:
        bundle, end = evidence._read(data.decode(), 0, evidence._BUNDLE_PLAN, [])
        assert end == len(data)
        assert bundle == evidence._BUNDLE.decode(json.loads(data), "$")


def test_a_full_table_of_held_texts_decodes_goldens_and_their_variants_as_the_full_path_does():
    def outcome(decode, data):
        try:
            return decode(data)
        except ParseError as exc:
            return str(exc)

    # the state of a long-running verifier: honest bundles from 60 worlds fill
    # the held texts to their bound
    for seed in range(60):
        world = adversary.build_world(adversary.WorldConfig(seed=seed))
        evidence.deserialize(evidence.serialize(adversary.attest_honest(world).bundle))
    assert len(evidence._HELD) == evidence.MAX_HELD

    goldens = [(FIXTURES / f"{pair}.dcea.json").read_bytes() for pair in GOLDEN]
    documents = goldens + [json.dumps(json.loads(g), indent=1).encode() for g in goldens]
    documents += [json.dumps(_reversed_keys(json.loads(g)), separators=(",", ":")).encode()
                  for g in goldens]
    # byte flips: broken JSON, changed values and an upper-case MRTD digit
    documents += [g[:i] + bytes([g[i] ^ flip]) + g[i + 1:] for g in goldens for i, flip in
                  ((9, 1), (400, 1), (2000, 1), (5000, 1), (g.index(b'"mrtd":"') + 8, 32))]
    assert len(documents) == 24
    for data in documents + goldens:  # the goldens again, now held
        assert outcome(evidence.deserialize, data) == outcome(_full_path, data)
    assert len(evidence._HELD) == evidence.MAX_HELD


@pytest.mark.parametrize("spoil", [
    lambda t: t.replace('"algorithm":"ed25519"', '"algorithm":"rsa"'),  # the last record's value
    lambda t: t.replace('"selection":[0,', '"selection":[', 1),  # the quote's make refuses it
    lambda t: t + "x",  # every value read, then text after the bundle
    lambda t: t + " ",  # the full path decodes it, and only the reader admits
])
def test_a_document_the_reader_does_not_finish_admits_nothing(spoil):
    text = (FIXTURES / "honest_s2.dcea.json").read_text()
    spoilt = spoil(text)
    assert spoilt != text
    _decoded(evidence.deserialize, spoilt.encode())
    assert evidence._HELD == {}
    evidence.deserialize(text.encode())
    assert len(evidence._HELD) == 6


def test_the_held_table_fills_to_its_bound_and_keeps_answering(monkeypatch):
    golden = (FIXTURES / "honest_s1.dcea.json").read_bytes()
    first = evidence.deserialize(golden)
    for seed in range(60):
        evidence.deserialize(evidence.serialize(random_bundle(seed)))
        assert len(evidence._HELD) <= evidence.MAX_HELD
    assert len(evidence._HELD) == evidence.MAX_HELD
    assert all(isinstance(value, (tuple, crypto.Certificate, crypto.CertChain))
               for _, value in evidence._HELD.values())
    held = dict(evidence._HELD)
    again = evidence.deserialize(golden)
    assert again.event_log is first.event_log and again.ek_cert_chain is first.ek_cert_chain
    # a new bundle against a full table: its first value is new, so the reader
    # parses nothing and the full path reads it
    new = evidence.serialize(random_bundle(10**6))
    scanned = []
    monkeypatch.setattr(evidence, "_scan", lambda *args: scanned.append(args))
    assert evidence.deserialize(new) == _full_path(new)
    assert scanned == []
    assert evidence._HELD == held


@pytest.mark.parametrize("note", ["", "x" * evidence.HELD_PREFIX])
def test_every_decode_returns_a_fresh_scenario_meta(note):
    obj = json.loads((FIXTURES / "honest_s1.dcea.json").read_text())
    obj["scenario_meta"]["note"] = note  # long enough to be held, were a dict admitted
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    first, second = evidence.deserialize(data), evidence.deserialize(data)
    assert first.event_log is second.event_log  # the second was read from held texts
    assert first.scenario_meta == second.scenario_meta == obj["scenario_meta"]
    assert first.scenario_meta is not second.scenario_meta
    first.scenario_meta["seed"] = "changed"
    assert evidence.deserialize(data).scenario_meta == second.scenario_meta != first.scenario_meta


@pytest.mark.parametrize("reencode", [
    lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":")),  # what the reader reads
    lambda obj: json.dumps(obj, indent=1),  # what only the full path reads
])
def test_the_event_log_is_capped_on_both_decode_paths(reencode):
    obj = json.loads((FIXTURES / "honest_s1.dcea.json").read_text())
    entries = obj["event_log"]
    cap = evidence.MAX_LOG_ENTRIES
    obj["event_log"] = [entries[i % len(entries)] for i in range(cap)]
    assert len(evidence.deserialize(reencode(obj).encode()).event_log) == cap
    obj["event_log"].append(entries[0])
    for decode in (evidence.deserialize, _full_path):
        with pytest.raises(ParseError) as exc:
            decode(reencode(obj).encode())
        assert str(exc.value) == f"$.event_log: expected at most {cap} items, got {cap + 1}"


# -- certificates and entries keep the text they were first written as -------

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
    return [v for v in _repeated_values(bundle) if isinstance(v, KEEPS_TEXT)]


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
        empty_held_texts()
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


def test_replay_memo_answers_equal_entries_under_the_same_scope():
    world = adversary.build_world(adversary.WorldConfig(seed=11))
    log = adversary.attest_honest(world).bundle.event_log
    memo = {}
    first = evidence.replay_event_log(log, memo=memo)
    # copies that share no object with the log, under another description,
    # which the replay does not read
    copies = [replace(e, event_digest=crypto.Digest(bytes(bytearray(e.event_digest.data))),
                      description=e.description + " (copy)") for e in log]
    assert evidence.replay_event_log(copies, memo=memo) is first
    host = evidence.replay_event_log(log, scope=tpm.Scope.HOST, memo=memo)
    assert host == evidence.replay_event_log(log, scope=tpm.Scope.HOST) != first
    assert len(memo) == 2
    # a change to any field the replay reads is a new key, replayed afresh
    at, entry = next((i, e) for i, e in enumerate(log) if e.scope is tpm.Scope.GUEST
                     and e.pcr_index is not None and e.rtmr_index is not None)
    for changed in (replace(entry, scope=tpm.Scope.HOST),
                    replace(entry, pcr_index=(entry.pcr_index + 1) % tpm.N_PCRS),
                    replace(entry, rtmr_index=(entry.rtmr_index + 1) % tpm.N_RTMRS),
                    replace(entry, event_digest=crypto.digest(b"another image"))):
        altered = log[:at] + (changed,) + log[at + 1:]
        for scope in (None, tpm.Scope.GUEST):
            held = len(memo)
            replayed = evidence.replay_event_log(altered, scope=scope, memo=memo)
            assert replayed == evidence.replay_event_log(altered, scope=scope)
            assert replayed is not first and len(memo) == held + 1


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
    vtpm = tpm.pcr_extend_digest(vtpm, guest.guest_log[0])
    kernel = tpm.EventLogEntry(2, crypto.digest(b"kernel"), "kernel", tpm.Scope.GUEST, 1)
    guest = td.rtmr_extend(guest, kernel)
    vtpm = tpm.pcr_extend_digest(
        vtpm, replace(kernel, event_digest=crypto.digest(b"tampered-kernel"))
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


@functools.lru_cache(maxsize=None)
def c5_inputs():
    _, _, _, report, quote, log, _ = honest_pieces()
    return report, quote, log


# every field the consistency rows read, as a change that draws its new value
def _change_register(data, report, quote, log, digest):
    at = data.draw(st.integers(0, 3))  # MRTD, then RTMR 0..2
    if at == 0:
        return replace(report, mrtd=digest), quote, log
    rtmrs = list(report.rtmrs)
    rtmrs[at - 1] = digest
    return replace(report, rtmrs=tuple(rtmrs)), quote, log


def _change_quoted(data, report, quote, log, digest):
    values = list(quote.values)
    at = data.draw(st.integers(0, len(values) - 1))
    index, value = values[at]
    if data.draw(st.booleans()):
        values[at] = (data.draw(st.integers(0, tpm.N_PCRS - 1)), value)
    else:
        values[at] = (index, digest)
    return report, replace(quote, values=tuple(values)), log


def _change_guest_entry(data, report, quote, log, digest):
    at = data.draw(st.sampled_from([i for i, e in enumerate(log) if e.scope is tpm.Scope.GUEST]))
    entry = log[at]
    name = data.draw(st.sampled_from(["event_digest", "pcr_index", "rtmr_index"]))
    if name == "event_digest":
        changed = replace(entry, event_digest=digest)
    else:  # an entry keeps at least one register index
        index = st.integers(0, (tpm.N_PCRS if name == "pcr_index" else tpm.N_RTMRS) - 1)
        other = entry.rtmr_index if name == "pcr_index" else entry.pcr_index
        changed = replace(entry, **{name: data.draw(index if other is None else st.none() | index)})
    return report, quote, log[:at] + (changed,) + log[at + 1:]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_populated_c5_memo_answers_any_changed_input_as_an_empty_one(data):
    report, quote, log = c5_inputs()
    memo = {}
    evidence.check_rtmr_pcr_consistency(report, quote, log, memo)
    change = data.draw(st.sampled_from([_change_register, _change_quoted, _change_guest_entry]))
    digest = crypto.Digest(data.draw(st.binary(min_size=48, max_size=48)))
    changed = change(data, report, quote, log, digest)
    assert (evidence.check_rtmr_pcr_consistency(*changed, memo)
            == evidence.check_rtmr_pcr_consistency(*changed))
