"""The per-object analysis path, kept as a test reference.

Copies of documents.transcript_from_document, adversary.eve_posterior and
adversary.information_summary as they were before analyze ran on code
columns: every wire line parsed into an Announcement, one BlockPosterior
built per block, and totals summed over those objects. The only edits are
the names, the imports and that the report is returned as its tuple of
blocks. The column path must give an equal transcript, equal blocks and
equal totals, or the same error.

Also a verbatim copy of adversary.estimate_mi_monte_carlo as it was before
the view layout was written down once in adversary._VIEW_PARTS, with its
per-pattern view arithmetic inline. The estimator must still give the same
floats, bit for bit.
"""
from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

from swapcomm.adversary import (
    _LABEL_INDEX,
    PATTERN_A_ONLY,
    PATTERN_B_ONLY,
    PATTERN_BOTH,
    PATTERN_NONE,
    BlockPosterior,
    OpPair,
    _entropy_bits,
    _likelihoods,
    _mi_bits,
    _pattern_information,
    _pattern_likelihoods,
    _validate_priors,
)
from swapcomm.channel import MAX_FRAME_BYTES, Announcement, AnnouncementKind, FrameError
from swapcomm.documents import _SESSION_TYPES
from swapcomm.protocol import SessionMode, SilentFallback, Transcript
from swapcomm.swap import ALL_OP_PAIRS


def transcript_from_document(doc: dict) -> Transcript:
    """Rebuild the public transcript; reads only the public sections."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if not isinstance(doc.get("session", {}), dict):
        raise ValueError("session must be a JSON object")
    try:
        session = doc["session"]
        lines = doc["transcript"]
        fields = {key: session[key] for key in _SESSION_TYPES}
    except KeyError as exc:
        raise ValueError(f"not a transcript document: missing {exc}") from exc
    for key, types in _SESSION_TYPES.items():
        if isinstance(fields[key], bool) or not isinstance(fields[key], types):
            raise ValueError(f"session {key} has the wrong type: {fields[key]!r}")
    if not isinstance(lines, list) or not all(isinstance(line, str) for line in lines):
        raise ValueError("transcript must be a list of wire lines")
    for key in ("n_pairs", "alice_declared_length", "bob_declared_length"):
        if fields[key] is not None and fields[key] < 0:
            raise ValueError(f"session {key} must be non-negative, got {fields[key]}")
    # A session announces at least one line per block; this also bounds the
    # per-block work of an analysis by the document's size.
    if fields["n_pairs"] // 2 > len(lines):
        raise ValueError(
            f"session n_pairs {fields['n_pairs']} needs {fields['n_pairs'] // 2} "
            f"blocks but the transcript has only {len(lines)} lines"
        )
    # The wire's frame cap, which counts the newline a document line lacks.
    # No character takes more than 4 bytes, so short lines need no encoding.
    if 4 * max(map(len, lines), default=0) >= MAX_FRAME_BYTES:
        for number, line in enumerate(lines):
            if len(line.encode("utf-8", "surrogatepass")) >= MAX_FRAME_BYTES:
                raise FrameError(
                    f"transcript line {number} is longer than {MAX_FRAME_BYTES - 1} bytes",
                    MAX_FRAME_BYTES - 1,
                )
    transcript = Transcript(
        session_id=fields["id"],
        n_pairs=fields["n_pairs"],
        mode=SessionMode(fields["mode"]),
        fallback=SilentFallback(fields["fallback"]),
        alice_declared_length=fields["alice_declared_length"],
        bob_declared_length=fields["bob_declared_length"],
        announcements=tuple(Announcement.from_wire(line) for line in lines),
    )
    for ann in transcript.announcements:
        if ann.kind is AnnouncementKind.MEASUREMENT and not (
            1 <= ann.block <= transcript.usable_blocks
        ):
            raise ValueError(
                f"measurement for block {ann.block} outside 1..{transcript.usable_blocks}"
            )
    return transcript


def block_announcements(transcript: Transcript) -> list:
    a_seen = transcript.measurements("A")
    b_seen = transcript.measurements("B")
    return [
        (k, a_seen.get(k), b_seen.get(k))
        for k in range(1, transcript.usable_blocks + 1)
    ]


def _view_of(a_label, b_label) -> tuple[str, int]:
    """A block's announcement pattern and its view's column in _likelihoods()."""
    if a_label is not None and b_label is not None:
        return PATTERN_BOTH, 4 * _LABEL_INDEX[a_label] + _LABEL_INDEX[b_label]
    if a_label is not None:
        return PATTERN_A_ONLY, 16 + _LABEL_INDEX[a_label]
    if b_label is not None:
        return PATTERN_B_ONLY, 20 + _LABEL_INDEX[b_label]
    return PATTERN_NONE, 24


def eve_posterior(transcript: Transcript, priors) -> tuple[BlockPosterior, ...]:
    """Exact per-block posterior over operation pairs given the transcript.

    A block whose announced outcome has zero probability under the priors
    is flagged inconsistent; its posterior is left empty rather than
    normalizing a zero vector.
    """
    priors_vec = _validate_priors(priors)
    prior_entropy = _entropy_bits(priors_vec)
    announced = block_announcements(transcript)
    seen = [_view_of(a_label, b_label) for _, a_label, b_label in announced]
    info = {
        pattern: _pattern_information(priors_vec, pattern)
        for pattern in {pattern for pattern, _ in seen}
    }
    # A block's posterior depends only on its view, so each distinct view
    # is scored once: one gather from the table, one row per view. Blocks
    # of one view share its read-only posterior mapping.
    columns, inverse = np.unique(
        np.array([column for _, column in seen], dtype=np.int64), return_inverse=True
    )
    weighted = priors_vec * _likelihoods().T[columns]
    scored = []
    for row, evidence in zip(weighted, weighted.sum(axis=1).tolist()):
        if evidence > 0.0:
            post_vec = row / evidence
            posterior = MappingProxyType(dict(zip(ALL_OP_PAIRS, post_vec.tolist())))
            scored.append((True, posterior, _entropy_bits(post_vec)))
        else:
            scored.append((False, MappingProxyType({}), float("nan")))

    blocks = []
    for (index, a_label, b_label), (pattern, _), k in zip(
        announced, seen, inverse.tolist()
    ):
        consistent, posterior, posterior_entropy = scored[k]
        blocks.append(BlockPosterior(
            index=index,
            announced_a=a_label,
            announced_b=b_label,
            pattern=pattern,
            consistent=consistent,
            posterior=posterior,
            prior_entropy_bits=prior_entropy,
            posterior_entropy_bits=posterior_entropy,
            **info[pattern],
        ))
    return tuple(blocks)


def information_summary(blocks: tuple[BlockPosterior, ...], priors) -> dict:
    """Per-block rows and session totals of the entropy and MI bookkeeping.

    Blocks are independent, so session totals are sums; inconsistent blocks
    are excluded from the posterior-entropy total and listed instead.
    """
    priors_vec = _validate_priors(priors)
    prior_entropy = _entropy_bits(priors_vec)
    per_block = [
        {
            "index": b.index,
            "pattern": b.pattern,
            "consistent": b.consistent,
            "prior_entropy_bits": b.prior_entropy_bits,
            "posterior_entropy_bits": b.posterior_entropy_bits,
            "mi_alice_bits": b.mi_alice_bits,
            "mi_bob_bits": b.mi_bob_bits,
            "mi_joint_bits": b.mi_joint_bits,
        }
        for b in blocks
    ]
    consistent = [b for b in blocks if b.consistent]
    session = {
        "blocks": len(blocks),
        "prior_entropy_bits": prior_entropy * len(blocks),
        "posterior_entropy_bits": sum(b.posterior_entropy_bits for b in consistent),
        "mi_alice_bits": sum(b.mi_alice_bits for b in blocks),
        "mi_bob_bits": sum(b.mi_bob_bits for b in blocks),
        "mi_joint_bits": sum(b.mi_joint_bits for b in blocks),
        "inconsistent_blocks": [b.index for b in blocks if not b.consistent],
    }
    return {"per_block": per_block, "session": session}


def estimate_mi_monte_carlo(
    priors: Mapping[OpPair, float],
    pattern: str = PATTERN_BOTH,
    n_blocks: int = 100_000,
    seed: int = 0,
) -> dict[str, float]:
    """Plug-in MI estimates from simulated blocks, for cross-checking the
    analytic values.

    Each block draws an operation pair from the priors and an outcome from
    the swapping law (a-side uniform, b-side fixed by the composite's
    column), then reduces the outcome to the given announcement pattern.
    """
    priors_vec = _validate_priors(priors)
    n_views = _pattern_likelihoods(pattern).shape[1]
    # partner_b[ops_index, a_idx]: the b_idx paired with a_idx in the column
    # of the operations' composite label.
    partner_b = _pattern_likelihoods(PATTERN_BOTH).reshape(16, 4, 4).argmax(axis=2)

    rng = np.random.default_rng(seed)
    ops = rng.choice(16, size=n_blocks, p=priors_vec)
    a_idx = rng.integers(4, size=n_blocks)
    b_idx = partner_b[ops, a_idx]
    if pattern == PATTERN_BOTH:
        views = 4 * a_idx + b_idx
    elif pattern == PATTERN_A_ONLY:
        views = a_idx
    elif pattern == PATTERN_B_ONLY:
        views = b_idx
    else:
        views = np.zeros(n_blocks, dtype=np.int64)

    counts = np.bincount(ops * n_views + views, minlength=16 * n_views).reshape(
        16, n_views
    )
    joint = counts / n_blocks
    by_alice = joint.reshape(4, 4, -1).sum(axis=1)
    by_bob = joint.reshape(4, 4, -1).sum(axis=0)
    return {
        "mi_alice_bits": _mi_bits(by_alice),
        "mi_bob_bits": _mi_bits(by_bob),
        "mi_joint_bits": _mi_bits(joint),
        "n_blocks": float(n_blocks),
    }
