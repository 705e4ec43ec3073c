"""Shared builders for evidence-level tests.

random_bundle produces structurally valid bundles without any real key
material, so serialization properties can run by the thousand without
paying for signatures. verify_once appraises a bundle the way
``dcea verify`` does, through a fresh Verifier.
"""

import random

from dcea import crypto, evidence, td, tpm, verifier


def empty_held_texts():
    """Empty the canonical reader's held texts, the one decode state."""
    evidence._HELD.clear()


def extend(state, index, event, description=""):
    """``state`` with the digest of the raw ``event`` bytes folded into PCR
    ``index`` as one host entry."""
    return tpm.pcr_extend_digest(state, tpm.EventLogEntry(index, crypto.digest(event), description))


def verify_once(bundle, policy, challenge, registry=None, disabled_checks=frozenset()):
    """A one-shot appraisal: a fresh Verifier that has issued ``challenge``
    and holds ``registry`` (an empty one when None)."""
    v = verifier.Verifier(policy)
    if registry is not None:
        v.registry = registry
    v.adopt_challenge(challenge)
    return v.verify(bundle, challenge, disabled_checks)


def rand_digest(rng):
    return crypto.Digest(rng.randbytes(48))


def rand_cert(rng):
    n_claims = rng.randrange(0, 4)
    claims = {f"k{rng.randrange(10)}": f"v{rng.randrange(100)}" for _ in range(n_claims)}
    return crypto.Certificate(
        subject_public=rng.randbytes(32),
        issuer_id=rng.randbytes(8).hex(),
        claims=tuple(sorted(claims.items())),
        signature=rng.randbytes(64),
    )


def rand_chain(rng, max_len=3):
    return tuple(rand_cert(rng) for _ in range(rng.randrange(1, max_len + 1)))


def rand_entry(rng):
    scope = rng.choice([tpm.Scope.HOST, tpm.Scope.GUEST])
    if scope is tpm.Scope.HOST:
        return tpm.EventLogEntry(
            pcr_index=rng.randrange(24),
            event_digest=rand_digest(rng),
            description=f"host-ev-{rng.randrange(1000)}",
            scope=scope,
        )
    rtmr = rng.randrange(4)
    pcrs = td.RTMR_PCR_MAP[rtmr]
    return tpm.EventLogEntry(
        pcr_index=rng.choice(pcrs) if pcrs else None,
        event_digest=rand_digest(rng),
        description=f"guest-ev-{rng.randrange(1000)}",
        scope=scope,
        rtmr_index=rtmr,
    )


def rand_report(rng):
    return td.TdReport(
        mrtd=rand_digest(rng),
        rtmrs=tuple(rand_digest(rng) for _ in range(4)),
        mrconfigid=rng.randbytes(48),
        mrowner=rng.randbytes(48),
        mrownerconfig=rng.randbytes(48),
        report_data=rng.randbytes(64),
        tee_tcb_svn=rng.randbytes(16),
        mrseam=rng.randbytes(48),
        seam_attributes=rng.randbytes(8),
        td_attributes=rng.randbytes(8),
        ppid=f"ppid-{rng.randbytes(12).hex()}",
        qe_signature=rng.randbytes(64),
        qe_chain=rand_chain(rng),
    )


def rand_quote(rng):
    selection = tuple(sorted(rng.sample(range(24), rng.randrange(1, 20))))
    values = tuple((i, rand_digest(rng)) for i in selection)
    return tpm.TpmQuote(
        selection=selection,
        values=values,
        nonce=rng.randbytes(32),
        ak_public=rng.randbytes(32),
        signature=rng.randbytes(64),
    )


def random_bundle(seed):
    rng = random.Random(seed)
    meta_n = rng.randrange(0, 4)
    return evidence.EvidenceBundle(
        td_report=rand_report(rng),
        tpm_quote=rand_quote(rng),
        ek_cert_chain=rand_chain(rng),
        ak_cert=rand_cert(rng) if rng.random() < 0.7 else None,
        event_log=tuple(rand_entry(rng) for _ in range(rng.randrange(0, 12))),
        nonces=evidence.Nonces(rng.randbytes(32), rng.randbytes(32)),
        timing=evidence.Timing(
            challenge_sent=round(rng.uniform(0, 1e6), 3),
            td_received=round(rng.uniform(0, 1e6), 3),
            quote_received=round(rng.uniform(0, 1e6), 3),
        ),
        scenario_meta={f"m{rng.randrange(10)}": f"x{rng.randrange(100)}" for _ in range(meta_n)},
    )
