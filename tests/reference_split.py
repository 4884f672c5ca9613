"""Frame-mask non-speech splitter: the reference that `split_nonspeech` must reproduce.

`reference_split_nonspeech` is the splitter as it was before it learned to
work on the gold segments: it marks every non-speech frame in a mask, scans
the mask frame by frame for maximal runs, places each piece from two stub
tables keyed by run start and run end, and clips every piece against every
segment. `segfeat.data.split_nonspeech` must return the same pieces: keys,
gold segmentations, phonemes and feature bytes.
"""

from __future__ import annotations

import numpy as np

from segfeat.data import MAX_LEAD_MS, MIN_NONSPEECH_MS, NONSPEECH_SYMBOLS, LabeledUtterance
from segfeat.features import FrameMatrix
from segfeat.model import Segmentation


def reference_split_nonspeech(utt: LabeledUtterance, nonspeech=NONSPEECH_SYMBOLS,
                              min_run_ms: float = MIN_NONSPEECH_MS,
                              max_lead_ms: float = MAX_LEAD_MS):
    if utt.phonemes is None:
        return [utt]
    shift = utt.features.frame_shift
    t_total = utt.features.n_frames
    min_run = max(1, int(round(min_run_ms / 1000.0 / shift)))
    keep = int(round(max_lead_ms / 1000.0 / shift))
    nonspeech = set(nonspeech)

    spans = utt.gold.spans()
    mask = np.zeros(t_total, dtype=bool)
    for (s, e), sym in zip(spans, utt.phonemes):
        if sym in nonspeech:
            mask[s:e] = True

    # maximal non-speech frame runs
    runs = []
    t = 0
    while t < t_total:
        if mask[t]:
            start = t
            while t < t_total and mask[t]:
                t += 1
            runs.append((start, t))
        else:
            t += 1

    # cuts: every edge run plus interior runs meeting the length threshold
    cuts = [(a, b) for a, b in runs
            if a == 0 or b == t_total or (b - a) >= min_run]

    # each cut run donates a short stub to the piece on either side; stubs
    # never overlap even for runs shorter than twice the cap
    tail_of = {}  # run start -> frames kept by the piece ending there
    lead_of = {}  # run end -> frames kept by the piece starting there
    for a, b in cuts:
        run = b - a
        tail = min(keep, run) if a > 0 else 0
        lead = min(keep, run - tail) if b < t_total else 0
        tail_of[a] = tail
        lead_of[b] = lead

    pieces = []
    pos = 0
    for a, b in cuts + [(t_total, t_total)]:
        if pos < a:
            start = pos - lead_of.get(pos, 0)
            end = a + tail_of.get(a, 0)
            pieces.append((start, end))
        pos = b

    out = []
    for n, (a, b) in enumerate(pieces):
        clipped = [(max(s, a), min(e, b), sym)
                   for (s, e), sym in zip(spans, utt.phonemes)
                   if max(s, a) < min(e, b)]
        bounds = tuple(s - a for s, _, _ in clipped[1:])
        feats = FrameMatrix(utt.features.data[a:b].copy(), shift)
        key = utt.key if len(pieces) == 1 else f"{utt.key}#{n}"
        out.append(LabeledUtterance(key, feats, Segmentation(bounds, b - a),
                                    tuple(sym for _, _, sym in clipped)))
    return out
