"""TD model: launch-time measurements, RTMR extends, signed reports."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcea import crypto, td, tpm
from dcea.errors import BadReportData, InvalidEntry

from test_platform import make_platform


def make_td(ak_pub=b"\x11" * 32):
    plat, ca = make_platform()
    guest = td.td_launch(plat, b"guest-firmware", ak_pub=ak_pub)
    return guest, plat, ca


def make_qe():
    tee_ca = crypto.keygen(b"tee-vendor", crypto.KeyKind.CA)
    qe = crypto.keygen(b"qe", crypto.KeyKind.QE)
    root = crypto.issue_cert(tee_ca, tee_ca.public, {"role": "tee-root"})
    leaf = crypto.issue_cert(tee_ca, qe.public, {"role": "qe"})
    return qe, (leaf, root), root


def test_launch_measurements():
    ak_pub = b"\x11" * 32
    guest, _, _ = make_td(ak_pub)
    assert guest.mrtd == crypto.digest(b"guest-firmware")
    assert guest.mrconfigid == crypto.digest(ak_pub).data
    qe, chain, _ = make_qe()
    assert td.td_report(guest, b"\x00" * 64, qe, chain).mrowner == crypto.digest(b"tenant").data
    assert guest.rtmrs == (crypto.ZERO_DIGEST,) * 4
    # launch opens the guest log with the firmware event that backs MRTD
    assert len(guest.guest_log) == 1
    first = guest.guest_log[0]
    assert first.pcr_index == 0 and first.rtmr_index is None
    assert first.event_digest == crypto.digest(b"guest-firmware")
    assert first.scope is tpm.Scope.GUEST


def test_launch_without_binding_zeroes_mrconfigid():
    plat, _ = make_platform()
    guest = td.td_launch(plat, b"guest-firmware", ak_pub=None)
    assert guest.mrconfigid == b"\x00" * 48


def guest_entry(rtmr, pcr, event_digest=crypto.digest(b"e"), description="e"):
    return tpm.EventLogEntry(pcr, event_digest, description, tpm.Scope.GUEST, rtmr)


def test_rtmr_extend_matches_fold_oracle():
    guest, _, _ = make_td()
    kernel = guest_entry(1, 2, crypto.digest(b"kernel"), "kernel")
    initrd = guest_entry(1, 3, crypto.digest(b"initrd"), "initrd")
    guest = td.rtmr_extend(guest, kernel)
    guest = td.rtmr_extend(guest, initrd)
    acc = b"\x00" * 48
    for payload in (b"kernel", b"initrd"):
        acc = hashlib.sha384(acc + hashlib.sha384(payload).digest()).digest()
    assert guest.rtmrs[1].data == acc
    assert guest.rtmrs[0] == crypto.ZERO_DIGEST
    # the log appends the entries it was given, not copies of them
    assert guest.guest_log[1] is kernel and guest.guest_log[2] is initrd


def test_guest_event_pairing_follows_register_map():
    guest, _, _ = make_td()
    for rtmr, pcr in ((0, 1), (0, 7), (2, 15), (3, None)):  # RTMR 3 is reserved: no mirror
        assert td.rtmr_extend(guest, guest_entry(rtmr, pcr)).guest_log[-1].rtmr_index == rtmr
    with pytest.raises(InvalidEntry):
        guest_entry(4, 1)  # no RTMR 4
    refused = (
        guest_entry(0, 2),  # PCR 2 belongs to RTMR 1
        guest_entry(3, 8),  # reserved RTMR 3 cannot mirror
        guest_entry(1, None),  # a mapped RTMR needs its mirror
        tpm.EventLogEntry(1, crypto.digest(b"e"), "host", tpm.Scope.HOST, 0),
        guest_entry(None, 1),  # no RTMR to fold into
    )
    for entry in refused:
        with pytest.raises(InvalidEntry):
            td.rtmr_extend(guest, entry)


def test_report_roundtrip_and_signature_oracle():
    guest, _, _ = make_td()
    qe, chain, _ = make_qe()
    report_data = b"\xa5" * 64
    report = td.td_report(guest, report_data, qe, chain)
    assert report.mrtd == guest.mrtd
    assert report.report_data == report_data
    assert report.qe_chain == chain
    assert td.verify_td_report_signature(report)

    # Oracle: raw library verification of the canonical payload.
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    payload = td.report_signing_payload(report)
    Ed25519PublicKey.from_public_bytes(qe.public).verify(report.qe_signature, payload)


def test_report_signature_covers_measurements():
    guest, _, _ = make_td()
    qe, chain, _ = make_qe()
    report = td.td_report(guest, b"\x00" * 64, qe, chain)
    from dataclasses import replace

    forged = replace(report, mrtd=crypto.digest(b"other-firmware"))
    assert not td.verify_td_report_signature(forged)


def test_report_signature_under_malformed_leaf_key_is_invalid():
    from dataclasses import replace

    guest, _, _ = make_td()
    qe, chain, _ = make_qe()
    report = td.td_report(guest, b"\x00" * 64, qe, chain)
    bad_leaf = replace(chain[0], subject_public=b"\x01\x02")
    bad_chain = (bad_leaf,) + chain[1:]
    assert not td.verify_td_report_signature(replace(report, qe_chain=bad_chain))


def test_report_signature_without_a_qe_chain_is_invalid():
    from dataclasses import replace

    guest, _, _ = make_td()
    qe, chain, _ = make_qe()
    report = td.td_report(guest, b"\x00" * 64, qe, chain)
    assert not td.verify_td_report_signature(replace(report, qe_chain=()))


def test_report_data_width_enforced():
    guest, _, _ = make_td()
    qe, chain, _ = make_qe()
    with pytest.raises(BadReportData):
        td.td_report(guest, b"\x00" * 63, qe, chain)
    with pytest.raises(BadReportData):
        td.td_report(guest, b"\x00" * 65, qe, chain)


_GUEST, _, _ = make_td()
# every (rtmr, pcr) pair a runtime entry may carry
_PAIRS = [(rtmr, pcr) for rtmr, pcrs in td.RTMR_PCR_MAP.items() for pcr in pcrs or (None,)]
_GUEST_ENTRIES = st.builds(
    lambda pair, payload: guest_entry(*pair, crypto.digest(payload)),
    st.sampled_from(_PAIRS), st.binary(max_size=8),
)
_REFUSED = (
    tpm.EventLogEntry(1, crypto.digest(b"e"), "host", tpm.Scope.HOST, 0),  # a host entry
    guest_entry(0, 2),  # PCR 2 is outside RTMR 0's row of RTMR_PCR_MAP
    guest_entry(3, 8),  # reserved RTMR 3 cannot mirror
    guest_entry(None, 1),  # no RTMR to fold into
)


@given(st.lists(_GUEST_ENTRIES, max_size=12))
def test_a_batched_rtmr_extend_equals_its_entries_one_at_a_time(entries):
    one_by_one = _GUEST
    for entry in entries:
        one_by_one = td.rtmr_extend(one_by_one, entry)
    batched = td.rtmr_extend(_GUEST, *entries)
    assert batched == one_by_one
    assert batched.guest_log == _GUEST.guest_log + tuple(entries)


@given(st.lists(_GUEST_ENTRIES, max_size=6), st.sampled_from(_REFUSED),
       st.lists(_GUEST_ENTRIES, max_size=6))
def test_an_invalid_entry_anywhere_in_a_batch_fails_it_whole(before, bad, after):
    rtmrs, log = _GUEST.rtmrs, _GUEST.guest_log
    with pytest.raises(InvalidEntry):
        td.rtmr_extend(_GUEST, *before, bad, *after)
    assert _GUEST.rtmrs is rtmrs and _GUEST.guest_log is log
