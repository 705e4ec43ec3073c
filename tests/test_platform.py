"""Measured launch and guest-facing TPM instantiation."""

import hashlib
from dataclasses import fields

import pytest

from dcea import crypto, platform, tpm
from dcea.errors import DoubleLaunch


def _fold(*payloads):
    acc = b"\x00" * 48
    for p in payloads:
        acc = hashlib.sha384(acc + hashlib.sha384(p).digest()).digest()
    return acc.hex()


def make_stack(tag=b""):
    return platform.HostStack(
        firmware_image=b"fw" + tag,
        acm_image=b"acm" + tag,
        seamldr_image=b"seamldr" + tag,
        kernel_image=b"kernel" + tag,
        hypervisor_image=b"hv" + tag,
        vtpm_binary=b"vtpm" + tag,
    )


def make_platform(tag=b""):
    ca = crypto.keygen(b"provider-ca", crypto.KeyKind.CA)
    device = tpm.tpm_init(
        b"ek" + tag, ca, {"provider": "examplecloud", "platform_id": "plat-1"}
    )
    return platform.measured_launch(make_stack(tag), device), ca


def test_launch_pcr17_matches_fold_oracle():
    plat, _ = make_platform()
    got = tpm.read_pcrs(plat.tpm, [17])[17].hex()
    assert got == _fold(b"acm", b"seamldr")


def test_launch_pcr18_matches_fold_oracle():
    plat, _ = make_platform()
    got = tpm.read_pcrs(plat.tpm, [18])[18].hex()
    assert got == _fold(b"kernel", b"hv", b"vtpm")


def test_launch_pcr0_holds_firmware():
    plat, _ = make_platform()
    assert tpm.read_pcrs(plat.tpm, [0])[0].hex() == _fold(b"fw")


def test_launch_static_events_land_in_declared_pcrs():
    plat, _ = make_platform()
    for idx, payload, _desc in platform.STATIC_EVENTS:
        assert tpm.read_pcrs(plat.tpm, [idx])[idx].hex() == _fold(payload)


def test_launch_is_deterministic():
    a, _ = make_platform()
    b, _ = make_platform()
    assert a.tpm.pcrs == b.tpm.pcrs
    assert a.id == b.id == "plat-1"


def test_stack_sensitivity():
    base, _ = make_platform()
    base_vals = tpm.read_pcrs(base.tpm, [0, 17, 18])
    for field_name in (
        "firmware_image", "acm_image", "seamldr_image",
        "kernel_image", "hypervisor_image", "vtpm_binary",
    ):
        stack = make_stack()
        stack = platform.HostStack(**{
            **{f: getattr(stack, f) for f in (
                "firmware_image", "acm_image", "seamldr_image",
                "kernel_image", "hypervisor_image", "vtpm_binary",
            )},
            field_name: getattr(stack, field_name) + b"!",
        })
        ca = crypto.keygen(b"provider-ca", crypto.KeyKind.CA)
        device = tpm.tpm_init(b"ek", ca, {"platform_id": "plat-1"})
        plat = platform.measured_launch(stack, device)
        assert tpm.read_pcrs(plat.tpm, [0, 17, 18]) != base_vals, field_name


@pytest.mark.parametrize("field_name", ["firmware_image", "vtpm_binary"])
def test_a_stack_with_an_empty_image_is_refused(field_name):
    images = {f.name: getattr(make_stack(), f.name) for f in fields(platform.HostStack)}
    with pytest.raises(ValueError, match=f"stack image {field_name} must be non-empty"):
        platform.HostStack(**{**images, field_name: b""})


def test_double_launch_rejected():
    plat, _ = make_platform()
    with pytest.raises(DoubleLaunch):
        platform.measured_launch(make_stack(), plat.tpm)


def test_instantiate_vtpm_policy_equals_host_launch_digests():
    plat, ca = make_platform()
    vtpm = platform.instantiate_vtpm(plat, ca, b"vtpm-seed")
    handle = tpm.default_ak_handle(vtpm)
    policy = dict(vtpm.aks[handle].policy)
    host = tpm.read_pcrs(plat.tpm, [17, 18])
    assert policy[17] == host[17]
    assert policy[18] == host[18]
    # and the fresh instance can actually quote under that policy
    quote = tpm.tpm_quote(vtpm, handle, [17, 18], b"\x07" * 32)
    assert quote.values_dict()[17] == host[17]


def test_instantiate_vtpm_kind_and_cert_chain():
    plat, ca = make_platform()
    vtpm = platform.instantiate_vtpm(plat, ca, b"vtpm-seed", kind=tpm.TpmKind.DISCRETE)
    assert vtpm.kind is tpm.TpmKind.DISCRETE
    # EK cert chains to the provider CA that instantiated it
    root = crypto.issue_cert(ca, ca.public, {"role": "root"})
    chain = crypto.CertChain((vtpm.ek_cert, root))
    assert crypto.verify_chain(chain, [root], {}).ok
