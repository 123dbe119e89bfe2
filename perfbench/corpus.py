"""Seeded input generators and references computed without ``repro``.

Each generator returns the bytes the program receives together with the
reference its outputs are checked against, built from what the generator
wrote (never by re-parsing through the program's own code).  The same
seed always gives the same bytes.  Inputs are ``blocks`` DFS blocks of
``block_size`` bytes; whole lines are packed into each block and the
rest is newline padding, so no line straddles a block boundary (the DFS
splits files at fixed byte offsets).
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from typing import Any

__all__ = [
    "VOCAB_SIZE", "ZIPF_S", "WORD_LEN", "WORDS_PER_LINE", "LINE_BYTES", "RECORD_HEX",
    "zipf_text", "unique_records", "grep_corpus", "grep_reference",
    "check_output",
]

VOCAB_SIZE = 1000
ZIPF_S = 1.3
# Fixed word and line lengths: pairs per byte do not depend on which word
# a seed ranks first, so job cost does not swing from seed to seed.  At 32
# letters a 1 MB block holds ~32k words: a 12-block job (~381k pairs) takes
# about a second on 2 cores, so one run holds enough jobs for its medians.
WORD_LEN = 32
WORDS_PER_LINE = 12
# 64 hex digits per record: 11 blocks give two reduce outputs over the
# 4 MB stream page on the default 4-worker ring.
RECORD_HEX = 64
GREP_MARKER_RATE = 0.005
GREP_CODES = 100

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _vocabulary(rng: random.Random) -> list[str]:
    words: set[str] = set()
    while len(words) < VOCAB_SIZE:
        words.add("".join(rng.choices(_LETTERS, k=WORD_LEN)))
    ranked = sorted(words)
    rng.shuffle(ranked)
    return ranked


LINE_BYTES = WORDS_PER_LINE * (WORD_LEN + 1)


def _pack(lines: list[str], per_block: int, block_size: int) -> bytes:
    """``per_block`` lines per block, each block newline-padded to size."""
    out = []
    for start in range(0, len(lines), per_block):
        block = "".join(line + "\n" for line in lines[start:start + per_block])
        out.append(block + "\n" * (block_size - len(block)))
    return "".join(out).encode()


def _zipf_lines(rng: random.Random, n: int) -> list[list[str]]:
    vocab = _vocabulary(rng)
    cum = list(itertools.accumulate(1.0 / r ** ZIPF_S for r in range(1, VOCAB_SIZE + 1)))
    return [rng.choices(vocab, cum_weights=cum, k=WORDS_PER_LINE) for _ in range(n)]


def zipf_text(seed: int, blocks: int, block_size: int) -> tuple[bytes, Counter]:
    """Zipf(``ZIPF_S``) text over a ``VOCAB_SIZE``-word vocabulary.

    Returns the text and the ``Counter`` of the words written.
    """
    per_block = block_size // LINE_BYTES
    lines = _zipf_lines(random.Random(f"zipf:{seed}"), blocks * per_block)
    counts: Counter = Counter()
    for line in lines:
        counts.update(line)
    return _pack([" ".join(line) for line in lines], per_block, block_size), counts


def unique_records(seed: int, blocks: int, block_size: int) -> tuple[bytes, Counter]:
    """Distinct ``RECORD_HEX``-digit hex records, one per line.

    Returns the text and the multiset of records (every count is 1).
    """
    rng = random.Random(f"unique:{seed}")
    per_block = block_size // (RECORD_HEX + 1)
    seen: dict[int, None] = {}
    while len(seen) < blocks * per_block:
        seen[rng.getrandbits(4 * RECORD_HEX)] = None
    records = [f"{r:0{RECORD_HEX}x}" for r in seen]
    return _pack(records, per_block, block_size), Counter(records)


def grep_corpus(seed: int, blocks: int, block_size: int) -> tuple[bytes, list[str]]:
    """Zipf text with rare ``ERR<code>`` markers, and the job patterns.

    Markers (upper case and digits) can never occur in the lower-case
    vocabulary; each pattern selects the markers of one leading digit.
    """
    rng = random.Random(f"grep:{seed}")
    per_block = block_size // LINE_BYTES
    lines = _zipf_lines(rng, blocks * per_block)
    for line in lines:
        if rng.random() < GREP_MARKER_RATE:
            line[rng.randrange(WORDS_PER_LINE)] = f"ERR{rng.randrange(GREP_CODES):02d}"
    text = _pack([" ".join(line) for line in lines], per_block, block_size)
    return text, [rf"ERR{d}\d" for d in range(10)]


def grep_reference(text: bytes, pattern: str) -> Counter:
    """Matching lines (with multiplicity) by one multi-line regex scan."""
    line_re = re.compile(rf"^.*(?:{pattern}).*$", re.MULTILINE)
    return Counter(m.group(0) for m in line_re.finditer(text.decode("utf-8")))


def check_output(output: dict[Any, Any], reference: Counter) -> str | None:
    """``None`` when ``output`` equals ``reference``, else what differs."""
    if output == reference:
        return None
    missing = [k for k in reference if k not in output]
    extra = [k for k in output if k not in reference]
    wrong = [k for k in reference if k in output and output[k] != reference[k]]
    first = (missing or extra or wrong or ["?"])[0]
    return (f"output differs from reference: {len(missing)} missing,"
            f" {len(extra)} extra, {len(wrong)} wrong keys"
            f" (first {first!r}: got {output.get(first)!r},"
            f" expected {reference.get(first)!r})")
