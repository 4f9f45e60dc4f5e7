//! The text kernel under the simulator and the embedder.
//!
//! Both stand-ins read documents the same way — alphanumeric words, ASCII
//! case folded, English inflections stemmed, filler words ignored — and a
//! provider call should cost a few reads of its document, not a `String`
//! per token. Everything here therefore works on borrowed slices:
//!
//! * [`words`] yields each word as a `&str` into the text;
//! * [`lower`] folds case into one buffer the caller reuses, and borrows the
//!   word unchanged when it has no upper-case letter (most do not);
//! * [`stem`] returns the stem as the two slices it is made of. Every rule
//!   keeps a prefix of the word and appends at most a fixed suffix
//!   (`"ies" → "y"`), so comparing stems is a length check and two slice
//!   compares, and no stem is ever built;
//! * [`is_stopword`] looks in one first-byte bucket of a sorted table.
//!
//! The scans read the text 8 bytes at a time. A chunk of ASCII bytes is
//! classified as one `u64` with portable SWAR arithmetic (bitwise tricks on
//! a 64-bit word): every lane gets its alphanumeric and whitespace bit
//! together, so [`words`] steps over a whole chunk of separators or of word
//! bytes at once (and finds most words' start and end in one chunk), and
//! the tokenizer turns a chunk into its token count with one table lookup.
//! A chunk holding a non-ASCII byte is read one character at a time through
//! [`class_at`], from a character boundary, up to the first ASCII character
//! past it; so Unicode text is classified by exactly the per-character rule,
//! and a run of it is not checked again every 8 bytes.
//!
//! The rules themselves (what a word is, what the stemmer strips, which
//! words are filler) are the simulator's behaviour and are pinned by
//! `tests/tests/sim_golden.rs`; this module only decides how cheaply they
//! are applied.

use std::cmp::Ordering;

/// Filler words that carry no topical signal: function words, the container
/// nouns datasets are described with ("papers", "emails", "listings") and
/// the speech verbs around predicates ("describe", "discuss", "mention").
/// Sorted, for [`is_stopword`].
const STOPWORDS: &[&str] = &[
    "a",
    "about",
    "all",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "been",
    "being",
    "by",
    "can",
    "could",
    "describe",
    "describes",
    "describing",
    "did",
    "discuss",
    "discusses",
    "discussing",
    "do",
    "document",
    "documents",
    "does",
    "email",
    "emails",
    "for",
    "from",
    "had",
    "has",
    "have",
    "he",
    "her",
    "his",
    "how",
    "i",
    "in",
    "interested",
    "into",
    "is",
    "it",
    "item",
    "items",
    "its",
    "keep",
    "like",
    "listing",
    "listings",
    "mail",
    "mails",
    "may",
    "mention",
    "mentioning",
    "mentions",
    "message",
    "messages",
    "might",
    "must",
    "no",
    "not",
    "of",
    "on",
    "only",
    "or",
    "our",
    "paper",
    "papers",
    "please",
    "record",
    "records",
    "shall",
    "she",
    "should",
    "studies",
    "study",
    "than",
    "that",
    "the",
    "their",
    "them",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "to",
    "want",
    "wants",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "who",
    "whom",
    "whose",
    "will",
    "with",
    "would",
    "you",
    "your",
];

/// `STOPWORDS[BUCKET[b]..BUCKET[b + 1]]` are the stopwords whose first byte
/// is `b` (the table is sorted, so each first byte's words are adjacent).
const BUCKET: [u8; 257] = {
    let mut table = [0u8; 257];
    let mut k = 0;
    while k < STOPWORDS.len() {
        table[STOPWORDS[k].as_bytes()[0] as usize + 1] += 1;
        k += 1;
    }
    let mut b = 1;
    while b < table.len() {
        table[b] += table[b - 1];
        b += 1;
    }
    table
};

/// Whether the (lower-cased) word is filler.
pub(crate) fn is_stopword(word: &str) -> bool {
    let Some(&first) = word.as_bytes().first() else {
        return false;
    };
    let (lo, hi) = (BUCKET[first as usize], BUCKET[first as usize + 1]);
    STOPWORDS[lo as usize..hi as usize].contains(&word)
}

/// How the tokenizer and the word scan see a character. Bit flags rather
/// than an enum so the tokenizer can fold them into arithmetic.
pub(crate) type CharClass = u8;
pub(crate) const WHITESPACE: CharClass = 0;
pub(crate) const ALPHANUMERIC: CharClass = 1;
/// Anything else: punctuation, symbols, controls.
pub(crate) const PUNCTUATION: CharClass = 2;
/// Table marker for the bytes of multi-byte characters.
const NON_ASCII: CharClass = 4;

/// The class of every ASCII byte under the `char` rules, so plain text is
/// classified by a table lookup.
const BYTE_CLASS: [CharClass; 256] = {
    let mut table = [NON_ASCII; 256];
    let mut b = 0u8;
    while b.is_ascii() {
        table[b as usize] = if b.is_ascii_alphanumeric() {
            ALPHANUMERIC
        } else if matches!(b, b'\t'..=b'\r' | b' ') {
            // `char::is_whitespace` counts vertical tab;
            // `u8::is_ascii_whitespace` does not.
            WHITESPACE
        } else {
            PUNCTUATION
        };
        b += 1;
    }
    table
};

/// The class of the character starting at byte `i`, and its width in bytes.
/// Always inlined: it runs once per character of non-ASCII text, and
/// outlined it costs a call there.
#[inline(always)]
pub(crate) fn class_at(text: &str, i: usize) -> (CharClass, usize) {
    let class = BYTE_CLASS[text.as_bytes()[i] as usize];
    if class != NON_ASCII {
        return (class, 1);
    }
    let c = text[i..].chars().next().expect("i is inside text");
    let class = if c.is_alphanumeric() {
        ALPHANUMERIC
    } else if c.is_whitespace() {
        WHITESPACE
    } else {
        PUNCTUATION
    };
    (class, c.len_utf8())
}

/// Bytes per chunk of the word-at-a-time scans.
pub(crate) const CHUNK: usize = 8;

/// The high bit of every lane: where the lane-wise tests leave their answer.
const HIGH: u64 = 0x8080_8080_8080_8080;

/// `b` in every lane.
const fn splat(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// The `CHUNK` bytes at `i` as one little-endian word (lane `k` is byte
/// `i + k`), padded with spaces past the end of `bytes`; `None` when one of
/// them is not ASCII. A space is whitespace: it belongs to no word, costs no
/// token and only ends a run, so the padding changes no answer.
#[inline]
pub(crate) fn ascii_chunk(bytes: &[u8], i: usize) -> Option<u64> {
    let word = match bytes[i..].first_chunk::<CHUNK>() {
        Some(chunk) => u64::from_le_bytes(*chunk),
        None => {
            let mut padded = [b' '; CHUNK];
            padded[..bytes.len() - i].copy_from_slice(&bytes[i..]);
            u64::from_le_bytes(padded)
        }
    };
    (word & HIGH == 0).then_some(word)
}

// Lane-wise range tests on a word of ASCII bytes (every lane below 0x80).
// Adding `0x80 - lo` sets a lane's high bit exactly when the lane is at least
// `lo`, and adding `0x7f - hi` exactly when it is above `hi`; no lane sum
// passes 0xff, so no carry crosses into the next lane.

#[inline]
const fn at_least(word: u64, lo: u8) -> u64 {
    word.wrapping_add(splat(0x80 - lo)) & HIGH
}

#[inline]
const fn at_most(word: u64, hi: u8) -> u64 {
    !word.wrapping_add(splat(0x7f - hi)) & HIGH
}

/// The high bit of every alphanumeric lane of an ASCII word. Setting bit
/// 0x20 folds `A-Z` onto `a-z` (and moves nothing else into that range);
/// digits are tested unfolded, as folding would move `0x10..=0x19` onto them.
#[inline]
pub(crate) const fn alphanumeric_lanes(word: u64) -> u64 {
    let folded = word | splat(0x20);
    (at_least(word, b'0') & at_most(word, b'9')) | (at_least(folded, b'a') & at_most(folded, b'z'))
}

/// The high bit of every whitespace lane of an ASCII word: `\t..=\r` (vertical
/// tab included, as `char::is_whitespace` has it) and the space.
#[inline]
const fn whitespace_lanes(word: u64) -> u64 {
    (at_least(word, b'\t') & at_most(word, b'\r')) | at_most(word ^ splat(b' '), 0)
}

/// The high bit of every lane of an ASCII word that is neither
/// alphanumeric nor whitespace: punctuation, symbols, controls.
#[inline]
pub(crate) const fn punctuation_lanes(word: u64) -> u64 {
    !(alphanumeric_lanes(word) | whitespace_lanes(word)) & HIGH
}

/// Lane-wise high bits as a mask with bit `k` for lane `k`: each lane's bit
/// is multiplied onto its own position in the top byte, with no two partial
/// products meeting.
#[inline]
pub(crate) const fn lane_mask(lanes: u64) -> usize {
    ((lanes >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as usize
}

/// How many lanes have their high bit set: the lane bits are summed into the
/// top byte by one multiply.
#[inline]
pub(crate) const fn lane_count(lanes: u64) -> usize {
    ((lanes >> 7).wrapping_mul(splat(1)) >> 56) as usize
}

/// Whether the per-character path, which reads a chunk holding a non-ASCII
/// byte from `from`, may go back to reading chunks at `at`: just past an
/// ASCII character (`width` 1) beyond that chunk. A run of non-ASCII text is
/// so read in one go, not checked again every 8 bytes, and the test costs
/// one compare per multi-byte character.
#[inline(always)]
pub(crate) fn chunks_resume(from: usize, at: usize, width: usize) -> bool {
    width == 1 && at >= from + CHUNK
}

/// The first character boundary at or after `i` that does not start an
/// alphanumeric character: the end of the word running through `i`.
fn word_end(text: &str, mut i: usize) -> usize {
    let bytes = text.as_bytes();
    while i < bytes.len() {
        let Some(word) = ascii_chunk(bytes, i) else {
            return word_end_chars(text, i);
        };
        let ends = alphanumeric_lanes(word) ^ HIGH;
        if ends != 0 {
            return (i + ends.trailing_zeros() as usize / 8).min(bytes.len());
        }
        i += CHUNK;
    }
    bytes.len()
}

/// [`word_end`] one character at a time.
fn word_end_chars(text: &str, mut i: usize) -> usize {
    while i < text.len() {
        let (class, width) = class_at(text, i);
        if class != ALPHANUMERIC {
            return i;
        }
        i += width;
    }
    text.len()
}

/// The first alphanumeric run from `i`, read one character at a time, for a
/// chunk holding a non-ASCII byte: `Ok` with its start and end, or `Err`
/// with the boundary where chunks may be read again when none starts first.
fn run_from_chars(text: &str, mut i: usize) -> Result<(usize, usize), usize> {
    let from = i;
    while i < text.len() {
        let (class, width) = class_at(text, i);
        if class == ALPHANUMERIC {
            return Ok((i, word_end_chars(text, i + width)));
        }
        i += width;
        if chunks_resume(from, i, width) {
            break;
        }
    }
    Err(i)
}

/// The words of `text`: maximal alphanumeric runs longer than one byte.
pub(crate) fn words(text: &str) -> Words<'_> {
    Words { text, pos: 0 }
}

pub(crate) struct Words<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Iterator for Words<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let text = self.text;
        let bytes = text.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() {
            let (start, end) = match ascii_chunk(bytes, i) {
                Some(word) => {
                    let alphanumeric = alphanumeric_lanes(word);
                    if alphanumeric == 0 {
                        i += CHUNK;
                        continue;
                    }
                    // The run's first lane, and its end: in the same chunk
                    // for most words, so read off the same lanes.
                    let lane = alphanumeric.trailing_zeros() / 8;
                    let start = i + lane as usize;
                    let ends = (alphanumeric ^ HIGH) >> (8 * lane);
                    let end = match ends.trailing_zeros() / 8 {
                        8 => word_end(text, i + CHUNK),
                        len => (start + len as usize).min(bytes.len()),
                    };
                    (start, end)
                }
                None => match run_from_chars(text, i) {
                    Ok(run) => run,
                    Err(resume) => {
                        i = resume;
                        continue;
                    }
                },
            };
            i = end;
            if end - start > 1 {
                self.pos = end;
                return Some(&text[start..end]);
            }
        }
        self.pos = bytes.len();
        None
    }
}

/// `word` with ASCII letters lower-cased: the word itself when it has no
/// upper-case letter, otherwise a copy in `buf`.
#[inline]
pub(crate) fn lower<'a>(word: &'a str, buf: &'a mut String) -> &'a str {
    if word.bytes().any(|b| b.is_ascii_uppercase()) {
        buf.clear();
        buf.push_str(word);
        buf.make_ascii_lowercase();
        buf
    } else {
        word
    }
}

/// A stem, as the prefix of its word that survives plus the suffix the rule
/// appends. Compares (and orders) as the concatenation would.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stem<'a> {
    head: &'a str,
    tail: &'static str,
}

/// Crude stemmer over a lower-cased word: normalizes common English
/// inflections so "mutations" matches "mutation", "homes" matches "home",
/// "studies" matches "study".
#[inline]
pub(crate) fn stem(word: &str) -> Stem<'_> {
    let cut = |n: usize, tail: &'static str| Stem {
        head: &word[..word.len() - n],
        tail,
    };
    if word.len() > 4 {
        if word.ends_with("ies") {
            return cut(3, "y");
        }
        // classes -> class, boxes -> box, churches -> church
        if ["sses", "xes", "zes", "ches", "shes"]
            .iter()
            .any(|suffix| word.ends_with(suffix))
        {
            return cut(2, "");
        }
        if word.ends_with("ing") {
            return cut(3, "");
        }
        if word.ends_with("ed") {
            return cut(2, "");
        }
    }
    if word.len() > 3 && word.ends_with('s') && !word.ends_with("ss") {
        return cut(1, "");
    }
    cut(0, "")
}

impl<'a> Stem<'a> {
    /// A word used as it stands (synonyms, raw label tokens).
    pub(crate) fn verbatim(word: &'a str) -> Self {
        Stem {
            head: word,
            tail: "",
        }
    }

    /// The stem when no rule appended anything: a prefix of the word.
    pub(crate) fn as_prefix(&self) -> Option<&'a str> {
        self.tail.is_empty().then_some(self.head)
    }

    /// The stem's first byte. Every rule keeps at least the first two bytes
    /// of its word, so this is also the (lower-cased) word's first byte.
    pub(crate) fn first_byte(&self) -> Option<u8> {
        self.bytes().next()
    }

    fn bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.head.bytes().chain(self.tail.bytes())
    }

    /// The stem as the `String` nothing outside the tests needs.
    #[cfg(test)]
    pub(crate) fn built(&self) -> String {
        format!("{}{}", self.head, self.tail)
    }
}

impl PartialEq for Stem<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        if self.head.len() + self.tail.len() != other.head.len() + other.tail.len() {
            return false;
        }
        if self.tail == other.tail {
            self.head == other.head
        } else {
            self.bytes().eq(other.bytes())
        }
    }
}

impl Eq for Stem<'_> {}

impl Ord for Stem<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bytes().cmp(other.bytes())
    }
}

impl PartialOrd for Stem<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Stems of the content words (stopwords removed) of already lower-cased
/// text.
pub(crate) fn content_stems(lowered: &str) -> impl Iterator<Item = Stem<'_>> {
    words(lowered).filter(|w| !is_stopword(w)).map(stem)
}

#[cfg(test)]
pub(crate) mod reference {
    //! The allocating implementations this module replaced, kept as the
    //! reference the differential tests compare against.

    use proptest::prelude::*;

    pub(crate) const STOPWORDS: &[&str] = &[
        "a",
        "an",
        "the",
        "is",
        "are",
        "was",
        "were",
        "be",
        "been",
        "being",
        "do",
        "does",
        "did",
        "have",
        "has",
        "had",
        "of",
        "in",
        "on",
        "at",
        "to",
        "for",
        "with",
        "by",
        "from",
        "as",
        "about",
        "into",
        "that",
        "this",
        "these",
        "those",
        "it",
        "its",
        "and",
        "or",
        "not",
        "no",
        "paper",
        "papers",
        "document",
        "documents",
        "record",
        "records",
        "item",
        "items",
        "all",
        "any",
        "which",
        "who",
        "whom",
        "whose",
        "what",
        "where",
        "when",
        "how",
        "should",
        "would",
        "must",
        "can",
        "could",
        "may",
        "might",
        "will",
        "shall",
        "than",
        "then",
        "there",
        "their",
        "they",
        "them",
        "we",
        "you",
        "i",
        "he",
        "she",
        "his",
        "her",
        "our",
        "your",
        "listing",
        "listings",
        "email",
        "emails",
        "mail",
        "mails",
        "message",
        "messages",
        "describe",
        "describes",
        "describing",
        "discuss",
        "discusses",
        "discussing",
        "mention",
        "mentions",
        "mentioning",
        "keep",
        "only",
        "interested",
        "want",
        "wants",
        "like",
        "please",
        "study",
        "studies",
    ];

    pub(crate) fn is_stopword(w: &str) -> bool {
        STOPWORDS.contains(&w)
    }

    /// The per-character word scan [`super::words`] replaced: each character
    /// classified through [`super::class_at`].
    pub(crate) fn words(text: &str) -> Vec<&str> {
        use super::{class_at, ALPHANUMERIC};
        let mut out = Vec::new();
        let mut i = 0;
        while i < text.len() {
            let mut start = i;
            while i < text.len() {
                let (class, width) = class_at(text, i);
                i += width;
                if class == ALPHANUMERIC {
                    break;
                }
                start = i;
            }
            while i < text.len() {
                let (class, width) = class_at(text, i);
                if class != ALPHANUMERIC {
                    break;
                }
                i += width;
            }
            if i - start > 1 {
                out.push(&text[start..i]);
            }
        }
        out
    }

    /// ASCII words and punctuation, every ASCII whitespace, and multi-byte
    /// letters, digits, marks, spaces and symbols of every UTF-8 width.
    pub(crate) const MIXED: &str = "The colorectal\u{b}study, é1 数据集 a数 ab\u{a0}cd\u{2003}ef \
        \u{3000}g𝒳h ٣4 e\u{301}x … — €5 TCGA-COAD\r\n\tdata\u{c}set: https://x.org/ab_c ßü!";

    /// Every text that cuts [`MIXED`] at a character boundary, shifted by 0
    /// to 7 leading ASCII bytes: each multi-byte character of it starts at
    /// every offset of a chunk, and the text ends at every offset too.
    pub(crate) fn mixed_cuts() -> Vec<String> {
        let cuts: Vec<usize> = (0..=MIXED.len())
            .filter(|&k| MIXED.is_char_boundary(k))
            .collect();
        let mut out = Vec::new();
        for shift in 0..super::CHUNK {
            let pad = "q".repeat(shift);
            for &k in &cuts {
                out.push(format!("{pad}{}", &MIXED[..k]));
                out.push(format!("{pad}{}", &MIXED[k..]));
            }
        }
        out
    }

    /// Random ASCII, control bytes (`\x0b`, `\x0c`, NUL, DEL …) included,
    /// weighted towards letters so that runs of every length occur.
    pub(crate) fn ascii_text() -> impl Strategy<Value = String> {
        proptest::collection::vec((0u8..9, 0u8..128), 0..200).prop_map(|parts| {
            parts
                .into_iter()
                .map(|(kind, b)| match kind {
                    0..=3 => (b'a' + b % 26) as char,
                    4 => (b'A' + b % 26) as char,
                    5 => (b'0' + b % 10) as char,
                    6 | 7 => b as char,
                    _ => [' ', '\u{b}', '\u{c}', '\t', '\n'][usize::from(b % 5)],
                })
                .collect()
        })
    }

    /// Pieces of text the generated corpora never contain, next to ones
    /// they do: non-ASCII letters, digits, spaces and symbols, one-byte
    /// tokens, CRLF, every ASCII whitespace, upper case, stopwords (and
    /// words that stem to one, or that one stems to), inflections.
    const FRAGMENTS: &[&str] = &[
        "colorectal",
        "Cancer",
        "MUTATIONS",
        "mutation",
        "homes",
        "home",
        "garden",
        "studies",
        "study",
        "studi",
        "Study",
        "the",
        "THE",
        "has",
        "ha",
        "does",
        "doe",
        "was",
        "papers",
        "paper",
        "classes",
        "class",
        "boxes",
        "churches",
        "wishes",
        "buzzes",
        "mentioned",
        "mention",
        "running",
        "bodies",
        "body",
        "ies",
        "sses",
        "ing",
        "ed",
        "s",
        "ss",
        "x",
        "y",
        "a",
        "I",
        "7",
        "42",
        "tcga",
        "TCGA",
        "é",
        "É",
        "ü",
        "ß",
        "数据",
        "集",
        "é1",
        "a数",
        "٣",
        "𝒳",
        "\u{301}",
        " ",
        "  ",
        "\n",
        "\r\n",
        "\t",
        "\u{b}",
        "\u{c}",
        "\u{a0}",
        "\u{2003}",
        "\u{3000}",
        ", ",
        ".",
        "-",
        "_",
        ":",
        ": ",
        "…",
        "—",
        "€",
        "'",
        "/",
        "://",
        "(",
        ")",
    ];

    /// Random concatenations of [`FRAGMENTS`] and runs of random letters
    /// (so some texts have no whitespace at all).
    pub(crate) fn odd_text() -> impl Strategy<Value = String> {
        proptest::collection::vec((0..FRAGMENTS.len() + 8, "[a-zA-Zé数0-9]{1,12}"), 0..60).prop_map(
            |parts| {
                parts
                    .iter()
                    .map(|(i, letters)| FRAGMENTS.get(*i).copied().unwrap_or(letters))
                    .collect()
            },
        )
    }

    /// Lowercased alphanumeric content words (stopwords removed).
    pub(crate) fn content_words(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|t| t.len() > 1)
            .map(|t| t.to_ascii_lowercase())
            .filter(|t| !is_stopword(t))
            .collect()
    }

    pub(crate) fn stem(w: &str) -> String {
        if w.len() > 4 {
            if let Some(st) = w.strip_suffix("ies") {
                return format!("{st}y");
            }
            if let Some(st) = w.strip_suffix("sses") {
                return format!("{st}ss");
            }
            for pre in ["xes", "zes", "ches", "shes"] {
                if w.ends_with(pre) {
                    return w[..w.len() - 2].to_string();
                }
            }
            if let Some(st) = w.strip_suffix("ing") {
                return st.to_string();
            }
            if let Some(st) = w.strip_suffix("ed") {
                return st.to_string();
            }
        }
        if w.len() > 3 && w.ends_with('s') && !w.ends_with("ss") {
            return w[..w.len() - 1].to_string();
        }
        w.to_string()
    }

    pub(crate) fn relevance(predicate_words: &[String], haystack: &str) -> f64 {
        if predicate_words.is_empty() {
            return 1.0;
        }
        let hay: Vec<String> = content_words(haystack).iter().map(|w| stem(w)).collect();
        let mut hits = 0usize;
        for w in predicate_words {
            let sw = stem(w);
            if hay.contains(&sw) {
                hits += 1;
            }
        }
        hits as f64 / predicate_words.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::reference::odd_text;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stopword_table_is_sorted_and_is_the_reference_set() {
        assert!(STOPWORDS.windows(2).all(|w| w[0] < w[1]));
        let mut reference: Vec<&str> = reference::STOPWORDS.to_vec();
        reference.sort_unstable();
        assert_eq!(STOPWORDS, reference.as_slice());
        for w in [
            "the",
            "studies",
            "a",
            "your",
            "colorectal",
            "",
            "zzz",
            "The",
        ] {
            assert_eq!(is_stopword(w), reference::is_stopword(w), "{w:?}");
        }
    }

    #[test]
    fn stems_of_known_inflections() {
        for (word, want) in [
            ("mutations", "mutation"),
            ("homes", "home"),
            ("studies", "study"),
            ("classes", "class"),
            ("boxes", "box"),
            ("churches", "church"),
            ("wishes", "wish"),
            ("buzzes", "buzz"),
            ("running", "runn"),
            ("mentioned", "mention"),
            ("glass", "glass"),
            ("has", "has"),
            ("does", "doe"),
            ("ties", "tie"),
            ("été", "été"),
        ] {
            assert_eq!(stem(word).built(), want, "{word}");
            assert_eq!(reference::stem(word), want, "{word}");
        }
    }

    #[test]
    fn stems_compare_as_their_concatenation() {
        // "y" appended on one side, part of the word on the other.
        assert_eq!(stem("studies"), stem("study"));
        assert_eq!(stem("study"), stem("studies"));
        assert_ne!(stem("studies"), stem("studi"));
        assert_ne!(stem("studies"), stem("studx"));
        assert_eq!(stem("studies").cmp(&stem("study")), Ordering::Equal);
        assert_eq!(stem("bodies").cmp(&stem("bodx")), "body".cmp("bodx"));
        assert_eq!(stem("studies").as_prefix(), None);
        assert_eq!(stem("homes").as_prefix(), Some("home"));
    }

    #[test]
    fn lower_borrows_unless_it_must_copy() {
        let mut buf = String::new();
        assert_eq!(lower("cancer", &mut buf), "cancer");
        assert_eq!(buf.capacity(), 0);
        assert_eq!(lower("TCGA", &mut buf), "tcga");
        // Only ASCII folds, as `to_ascii_lowercase` does.
        assert_eq!(lower("Étude", &mut buf), "Étude");
        assert_eq!(lower("ÉTUDE", &mut buf), "Étude");
    }

    #[test]
    fn ascii_lanes_match_byte_classes() {
        for b in 0u8..128 {
            for lane in 0..CHUNK {
                // The byte in one lane, a different class in the others.
                let filler = if b == b'#' { b'a' } else { b'#' };
                let mut chunk = [filler; CHUNK];
                chunk[lane] = b;
                let word = ascii_chunk(&chunk, 0).expect("ascii");
                let (alnum, space) = (alphanumeric_lanes(word), whitespace_lanes(word));
                let bit = 0x80u64 << (8 * lane);
                assert_eq!(alnum & bit != 0, b.is_ascii_alphanumeric(), "byte {b:#x}");
                assert_eq!(space & bit != 0, (b as char).is_whitespace(), "byte {b:#x}");
                assert_eq!(
                    punctuation_lanes(word) & bit != 0,
                    BYTE_CLASS[b as usize] == PUNCTUATION
                );
                assert_eq!(lane_mask(alnum) >> lane & 1 == 1, alnum & bit != 0);
                assert_eq!(
                    lane_count(alnum),
                    (0..CHUNK)
                        .filter(|k| lane_mask(alnum) >> k & 1 == 1)
                        .count()
                );
            }
        }
        // Non-ASCII anywhere in the chunk, or in a short tail, sends it to the
        // per-character path.
        assert_eq!(ascii_chunk("abcdefgé".as_bytes(), 0), None);
        assert_eq!(ascii_chunk("ab é".as_bytes(), 0), None);
        assert_eq!(ascii_chunk(b"ab", 0), ascii_chunk(b"ab      ", 0));
    }

    #[test]
    fn words_match_the_per_character_scan_at_every_offset() {
        for text in reference::mixed_cuts() {
            assert_eq!(
                words(&text).collect::<Vec<_>>(),
                reference::words(&text),
                "{text:?}"
            );
        }
    }

    #[test]
    fn stopwords_and_near_misses_match_the_reference() {
        let mut probes: Vec<String> = vec![String::new(), "é".into(), "\u{0}".into()];
        for w in STOPWORDS {
            probes.push(w.to_string());
            probes.push(w.to_ascii_uppercase());
            probes.push(format!("{w}s"));
            probes.push(format!("x{w}"));
            for cut in 1..w.len() {
                probes.push(w[..cut].to_string());
                probes.push(w[cut..].to_string());
            }
            for at in 0..w.len() {
                for c in ('a'..='z').chain(['A', '0', 'é']) {
                    let mut changed = w.to_string();
                    changed.replace_range(at..at + 1, &c.to_string());
                    probes.push(changed);
                }
            }
        }
        for w in &probes {
            assert_eq!(is_stopword(w), reference::is_stopword(w), "{w:?}");
        }
    }

    proptest! {
        #[test]
        fn words_match_the_per_character_scan(text in odd_text(), ascii in reference::ascii_text()) {
            prop_assert_eq!(words(&text).collect::<Vec<_>>(), reference::words(&text));
            prop_assert_eq!(words(&ascii).collect::<Vec<_>>(), reference::words(&ascii));
        }

        #[test]
        fn words_are_the_split_words(text in odd_text()) {
            let want: Vec<&str> = text
                .split(|c: char| !c.is_alphanumeric())
                .filter(|t| t.len() > 1)
                .collect();
            prop_assert_eq!(words(&text).collect::<Vec<_>>(), want);
        }

        #[test]
        fn content_stems_are_the_reference_stems(text in odd_text()) {
            let want: Vec<String> = reference::content_words(&text)
                .iter()
                .map(|w| reference::stem(w))
                .collect();
            let lowered = text.to_ascii_lowercase();
            let got: Vec<String> = content_stems(&lowered).map(|s| s.built()).collect();
            prop_assert_eq!(&got, &want);
            // Word by word through the reused buffer, the way documents are read.
            let mut buf = String::new();
            let mut streamed = Vec::new();
            for word in words(&text) {
                let word = lower(word, &mut buf);
                if !is_stopword(word) {
                    streamed.push(stem(word).built());
                }
            }
            prop_assert_eq!(&streamed, &want);
        }

        #[test]
        fn stem_order_is_string_order(a in "[a-c]{1,3}[sieyngd]{0,3}", b in "[a-c]{1,3}[sieyngd]{0,3}") {
            let (sa, sb) = (stem(&a), stem(&b));
            prop_assert_eq!(sa.cmp(&sb), sa.built().cmp(&sb.built()));
            prop_assert_eq!(sa == sb, sa.built() == sb.built());
        }
    }
}
