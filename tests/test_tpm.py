"""TPM model: 24-register SHA-384 bank, event log, sealed AKs, policy-gated quotes."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcea import crypto, tpm
from dcea.errors import (
    EmptyPolicy,
    InvalidEntry,
    InvalidPcrIndex,
    PolicyViolation,
    UnknownAk,
)

from support import extend

# Frozen via the hashlib fold oracle: PCR 17 after extending the digests of
# b"acm-image" then b"seamldr-image" from a reset register.
PCR17_ACM_SEAMLDR = (
    "1fac4da7673bf8ed770bc05507c0c76283295237f34b4a4f864996663d9449c4"
    "4614680b97c0f9c1c30e067cfaddcc72"
)


def make_tpm(kind=tpm.TpmKind.DISCRETE):
    ca = crypto.keygen(b"provider-ca", crypto.KeyKind.CA)
    return tpm.tpm_init(b"ek-seed", ca, {"provider": "examplecloud"}, kind=kind), ca


def test_init_all_pcrs_zero():
    state, _ = make_tpm()
    values = tpm.read_pcrs(state, range(tpm.N_PCRS))
    assert len(values) == 24
    assert all(v == crypto.ZERO_DIGEST for v in values.values())
    assert state.log == ()


def test_extend_pcr17_twice_matches_fold_oracle():
    state, _ = make_tpm()
    state = extend(state, 17, b"acm-image", "acm")
    state = extend(state, 17, b"seamldr-image", "seamldr")
    assert tpm.read_pcrs(state, [17])[17].hex() == PCR17_ACM_SEAMLDR
    assert [e.description for e in state.log] == ["acm", "seamldr"]


def test_extend_leaves_original_state_untouched():
    state, _ = make_tpm()
    bumped = extend(state, 3, b"ev", "e")
    assert tpm.read_pcrs(state, [3])[3] == crypto.ZERO_DIGEST
    assert tpm.read_pcrs(bumped, [3])[3] != crypto.ZERO_DIGEST


def test_extend_rejects_bad_index():
    state, _ = make_tpm()
    with pytest.raises(InvalidEntry):
        extend(state, 24, b"ev")
    with pytest.raises(InvalidEntry):
        extend(state, -1, b"ev")


def test_read_pcrs_empty_selection_and_bad_index():
    state, _ = make_tpm()
    assert tpm.read_pcrs(state, []) == {}
    with pytest.raises(InvalidPcrIndex):
        tpm.read_pcrs(state, [99])


@given(st.lists(st.tuples(st.integers(0, 23), st.binary(min_size=1, max_size=16)), max_size=24))
def test_log_replay_soundness(events):
    # Folding the recorded log from a reset bank reproduces every register.
    state, _ = make_tpm()
    for idx, payload in events:
        state = extend(state, idx, payload)
    for idx in range(tpm.N_PCRS):
        expected = crypto.fold(
            e.event_digest for e in state.log if e.pcr_index == idx
        )
        assert tpm.read_pcrs(state, [idx])[idx] == expected


def test_create_sealed_ak_snapshots_policy():
    state, ca = make_tpm()
    state = extend(state, 17, b"acm-image")
    state = extend(state, 17, b"seamldr-image")
    state = extend(state, 18, b"kernel-image")
    state, handle = tpm.create_sealed_ak(state, b"ak-seed", {17, 18})
    sealed = state.aks[handle]
    policy = dict(sealed.policy)
    assert set(policy) == {17, 18}
    assert policy[17].hex() == PCR17_ACM_SEAMLDR
    assert policy[18] == tpm.read_pcrs(state, [18])[18]
    assert sealed.ak_cert.subject_public == sealed.keypair.public
    # the device's own EK certifies the AK, so it chains to the EK's issuer
    root = crypto.issue_cert(ca, ca.public, {"role": "root"})
    chain = crypto.CertChain((sealed.ak_cert, state.ek_cert, root))
    assert crypto.verify_chain(chain, (root,), {}).ok
    assert not crypto.verify_chain(crypto.CertChain((sealed.ak_cert, root)), (root,), {}).ok


def test_create_sealed_ak_empty_policy_rejected():
    state, _ = make_tpm()
    with pytest.raises(EmptyPolicy):
        tpm.create_sealed_ak(state, b"ak-seed", set())


def test_default_ak_handle_needs_exactly_one_ak():
    state, _ = make_tpm()
    with pytest.raises(UnknownAk, match="device holds 0"):
        tpm.default_ak_handle(state)
    state = extend(state, 17, b"acm-image")
    state, first = tpm.create_sealed_ak(state, b"ak-seed", {17})
    assert tpm.default_ak_handle(state) == first
    state, _ = tpm.create_sealed_ak(state, b"ak-seed-2", {17})
    with pytest.raises(UnknownAk, match="device holds 2"):
        tpm.default_ak_handle(state)


def test_quote_roundtrip_and_signature_oracle():
    state, _ = make_tpm()
    state = extend(state, 17, b"acm-image")
    state = extend(state, 18, b"kernel-image")
    state, handle = tpm.create_sealed_ak(state, b"ak-seed", {17, 18})
    nonce = b"\xab" * 32
    quote = tpm.tpm_quote(state, handle, [18, 17], nonce)
    assert quote.selection == (17, 18)
    assert quote.values_dict()[17] == tpm.read_pcrs(state, [17])[17]
    assert quote.nonce == nonce
    assert tpm.verify_quote_signature(quote)

    # Independent oracle: rebuild the payload with struct and verify raw.
    def eb(b):
        return struct.pack(">I", len(b)) + b

    payload = eb(b"dcea-quote-v1") + struct.pack(">I", 2)
    for idx, value in quote.values:
        payload += struct.pack(">I", idx) + eb(value.data)
    payload += eb(nonce)
    assert crypto.verify(quote.ak_public, payload, quote.signature)


def test_quote_unknown_handle():
    state, _ = make_tpm()
    with pytest.raises(UnknownAk):
        tpm.tpm_quote(state, "ak-1", [0], b"\x00" * 32)


def test_quote_policy_violation_after_policy_index_extend():
    state, _ = make_tpm()
    state = extend(state, 17, b"acm-image")
    state = extend(state, 18, b"vtpm-binary")
    state, handle = tpm.create_sealed_ak(state, b"ak-seed", {17, 18})
    tpm.tpm_quote(state, handle, [17, 18], b"\x01" * 32)  # sanity: succeeds
    mutated = extend(state, 18, b"malicious-vtpm-binary")
    with pytest.raises(PolicyViolation):
        tpm.tpm_quote(mutated, handle, [17, 18], b"\x01" * 32)


def test_quote_non_policy_extend_still_quotes():
    state, _ = make_tpm()
    state = extend(state, 17, b"acm-image")
    state, handle = tpm.create_sealed_ak(state, b"ak-seed", {17})
    state = extend(state, 8, b"guest-app")
    quote = tpm.tpm_quote(state, handle, [8, 17], b"\x02" * 32)
    assert quote.values_dict()[8] != crypto.ZERO_DIGEST


def test_install_sealed_ak_moves_policy_across_boots():
    # Seal on an honest boot, mutate the stack, reboot, reuse the old blob.
    honest, ca = make_tpm()
    honest = extend(honest, 18, b"vtpm-binary")
    honest, handle = tpm.create_sealed_ak(honest, b"ak-seed", {18})
    rebooted, _ = make_tpm()
    rebooted = extend(rebooted, 18, b"vtpm-binary-evil")
    rebooted = tpm.install_sealed_ak(rebooted, handle, honest.aks[handle])
    with pytest.raises(PolicyViolation):
        tpm.tpm_quote(rebooted, handle, [18], b"\x03" * 32)


def test_event_log_entry_validation():
    d = crypto.digest(b"e")
    with pytest.raises(InvalidEntry):
        tpm.EventLogEntry(pcr_index=24, event_digest=d, description="x")
    with pytest.raises(InvalidEntry):
        tpm.EventLogEntry(pcr_index=None, event_digest=d, description="x")
    with pytest.raises(InvalidEntry):
        tpm.EventLogEntry(
            pcr_index=1, event_digest=d, description="x", rtmr_index=4,
            scope=tpm.Scope.GUEST,
        )


def test_extend_digest_refuses_an_entry_that_names_no_pcr():
    state, _ = make_tpm(tpm.TpmKind.VIRTUAL)
    d = crypto.digest(b"e")
    # a guest event on the reserved RTMR 3 has no PCR mirror
    with pytest.raises(InvalidEntry, match="names no PCR"):
        tpm.pcr_extend_digest(state, tpm.EventLogEntry(None, d, "rtmr3", tpm.Scope.GUEST, 3))
    mirrored = tpm.EventLogEntry(8, d, "rtmr2", tpm.Scope.GUEST, 2)
    extended = tpm.pcr_extend_digest(state, mirrored)
    assert extended.log == (mirrored,)
    assert tpm.read_pcrs(extended, [8])[8] == crypto.extend(crypto.ZERO_DIGEST, d)


_STATE, _ = make_tpm(tpm.TpmKind.VIRTUAL)
_HOST_ENTRIES = st.builds(
    lambda index, payload: tpm.EventLogEntry(index, crypto.digest(payload), "e"),
    st.integers(0, tpm.N_PCRS - 1), st.binary(max_size=8),
)


@given(st.lists(_HOST_ENTRIES, max_size=12))
def test_a_batched_extend_equals_its_entries_one_at_a_time(entries):
    one_by_one = _STATE
    for entry in entries:
        one_by_one = tpm.pcr_extend_digest(one_by_one, entry)
    batched = tpm.pcr_extend_digest(_STATE, *entries)
    assert batched == one_by_one
    assert all(got is entry for got, entry in zip(batched.log, entries))


@given(st.lists(_HOST_ENTRIES, max_size=6), st.lists(_HOST_ENTRIES, max_size=6))
def test_an_entry_that_names_no_pcr_anywhere_in_a_batch_fails_it_whole(before, after):
    # a guest event on the reserved RTMR 3 has no PCR mirror
    bad = tpm.EventLogEntry(None, crypto.digest(b"e"), "rtmr3", tpm.Scope.GUEST, 3)
    registers, log = _STATE.pcrs.registers, _STATE.log
    with pytest.raises(InvalidEntry, match="names no PCR"):
        tpm.pcr_extend_digest(_STATE, *before, bad, *after)
    assert _STATE.pcrs.registers is registers and _STATE.log is log
