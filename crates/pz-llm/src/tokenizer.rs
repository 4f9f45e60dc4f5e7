//! Deterministic token counting.
//!
//! Real systems use BPE tokenizers; for cost and latency accounting the
//! reproduction only needs a stable, monotone approximation. We use the
//! common heuristic that one token covers ~4 characters of English text,
//! refined to count word and punctuation boundaries so that token counts
//! respond to structure the way BPE counts do.
//!
//! ASCII text is counted 8 bytes per step: a chunk's alphanumeric bytes, as
//! an 8-bit mask, and the length (mod 4) of the run it continues index a
//! const table holding the tokens the chunk's runs start and the run it
//! leaves; its punctuation bytes are counted by one multiply. A chunk with a
//! non-ASCII byte is counted character by character under the Unicode rule.
//!
//! A provider call counts its prompt exactly once — in the simulator, where
//! the count is the bill. The operator side only has to know whether a
//! document *fits*, and [`truncate_to_tokens`] answers that without
//! counting whenever it can: every token covers at least one byte, so a text
//! of at most `max_tokens` bytes has at most `max_tokens` tokens.

use crate::text::{
    alphanumeric_lanes, ascii_chunk, chunks_resume, class_at, lane_count, lane_mask,
    punctuation_lanes, ALPHANUMERIC, CHUNK, PUNCTUATION,
};
use std::borrow::Cow;

/// One chunk's tokens from its alphanumeric lanes: `RUN_STEP[run][mask]` for
/// a chunk entered `run` (mod 4) alphanumerics into a run, with bit `k` of
/// `mask` set for an alphanumeric byte `k`, is the tokens its runs start
/// (low nibble) and the run length mod 4 it leaves (high nibble). Mod 4 is
/// enough: a run takes a token at its 1st, 5th, 9th … character, so a run of
/// 4 and no run at all both take one at the next alphanumeric.
const RUN_STEP: [[u8; 256]; 4] = {
    let mut table = [[0u8; 256]; 4];
    let mut entered = 0;
    while entered < 4 {
        let mut mask = 0;
        while mask < 256 {
            let (mut run, mut tokens, mut lane) = (entered, 0u8, 0);
            while lane < CHUNK {
                run = if mask >> lane & 1 == 1 {
                    (run + 1) & 3
                } else {
                    0
                };
                tokens += (run == 1) as u8;
                lane += 1;
            }
            table[entered][mask] = tokens | (run as u8) << 4;
            mask += 1;
        }
        entered += 1;
    }
    table
};

/// Count tokens in `text`.
///
/// The rule: every maximal alphanumeric run contributes
/// `ceil(len / 4)` tokens (long words split into multiple subword tokens),
/// every non-space punctuation character contributes one token, and
/// whitespace is free. The empty string is zero tokens.
///
/// The text is read 8 bytes at a time (see the `text` module). An ASCII
/// chunk is classified as one word: its punctuation lanes are counted by one
/// multiply, and its alphanumeric lanes, as an 8-bit mask, index `RUN_STEP`
/// with the run carried in from the previous chunk. A chunk holding a
/// non-ASCII byte is read one character at a time, each decoded and
/// classified by the Unicode rule.
///
/// Properties relied on elsewhere (and checked by property tests):
/// * `count_tokens("") == 0`
/// * monotone under concatenation: `count(a + b) >= max(count(a), count(b))`
/// * subadditive-ish: `count(a + b) <= count(a) + count(b) + 1`
/// * `count(a) <= a.len()`
pub fn count_tokens(text: &str) -> usize {
    let bytes = text.as_bytes();
    let mut tokens = 0usize;
    // Length mod 4 of the alphanumeric run the next byte continues.
    let mut run = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        if let Some(word) = ascii_chunk(bytes, i) {
            let alphanumeric = alphanumeric_lanes(word);
            let step = RUN_STEP[run][lane_mask(alphanumeric)];
            run = usize::from(step >> 4);
            tokens += usize::from(step & 0xf) + lane_count(punctuation_lanes(word));
            i += CHUNK;
        } else {
            let from = i;
            while i < bytes.len() {
                let (class, width) = class_at(text, i);
                // Branch-free on the class (the flags are 0, 1 and 2): `run`
                // resets unless alphanumeric, and `class / PUNCTUATION` is 1
                // only for it.
                run = (run + 1) & 3 & usize::from(class & ALPHANUMERIC).wrapping_neg();
                tokens += usize::from(run == 1) + usize::from(class / PUNCTUATION);
                i += width;
                if chunks_resume(from, i, width) {
                    break;
                }
            }
        }
    }
    tokens
}

/// Estimate the number of tokens a completion of `text` would produce.
/// Identical to [`count_tokens`] today; a distinct entry point so output
/// accounting can diverge from input accounting later without call-site
/// churn.
#[inline]
pub fn count_output_tokens(text: &str) -> usize {
    count_tokens(text)
}

/// Truncate `text` to at most `max_tokens`, keeping the head and the tail
/// (documents often carry key content — titles up front, data-availability
/// sections at the end — so head+tail beats plain prefix truncation).
/// Borrows the input unchanged when it already fits, and decides that from
/// its byte length alone when that is enough (see the module docs), so a
/// document nowhere near the window is neither counted nor copied here.
pub fn truncate_to_tokens(text: &str, max_tokens: usize) -> Cow<'_, str> {
    if text.len() <= max_tokens || count_tokens(text) <= max_tokens {
        return Cow::Borrowed(text);
    }
    // Whole whitespace-terminated words from each end, found as byte
    // offsets: the head is `text[..head_end]`, the tail `text[tail_start..]`.
    let half_budget = max_tokens.saturating_sub(4) / 2;
    let mut head_end = 0usize;
    let mut used = 0usize;
    for word in text.split_inclusive(char::is_whitespace) {
        let t = count_tokens(word);
        if used + t > half_budget {
            break;
        }
        used += t;
        head_end += word.len();
    }
    let mut tail_start = text.len();
    used = 0;
    for word in text[head_end..].split_inclusive(char::is_whitespace).rev() {
        let t = count_tokens(word);
        if used + t > half_budget {
            break;
        }
        used += t;
        tail_start -= word.len();
    }
    let (head, tail) = (&text[..head_end], &text[tail_start..]);
    Cow::Owned(if tail_start <= head_end {
        format!("{head}{tail}")
    } else {
        format!("{head}\n…\n{tail}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::reference::{ascii_text, mixed_cuts, odd_text};
    use proptest::prelude::*;

    /// The per-`char` counter and the `String`-building truncation this
    /// module used to have, kept as the reference for the differentials.
    mod reference {
        /// The per-character loop [`super::count_tokens`] replaced: each
        /// character classified through `class_at`, run kept exactly.
        pub fn count_tokens_by_class(text: &str) -> usize {
            use crate::text::{class_at, ALPHANUMERIC, PUNCTUATION};
            let mut tokens = 0usize;
            let mut run = 0usize;
            let mut i = 0usize;
            while i < text.len() {
                let (class, width) = class_at(text, i);
                run = (run + 1) & usize::from(class & ALPHANUMERIC).wrapping_neg();
                tokens += usize::from(run & 3 == 1) + usize::from(class / PUNCTUATION);
                i += width;
            }
            tokens
        }

        pub fn count_tokens(text: &str) -> usize {
            let mut tokens = 0usize;
            let mut run_len = 0usize;
            for ch in text.chars() {
                if ch.is_alphanumeric() {
                    run_len += 1;
                } else {
                    if run_len > 0 {
                        tokens += run_len.div_ceil(4);
                        run_len = 0;
                    }
                    if !ch.is_whitespace() {
                        tokens += 1;
                    }
                }
            }
            if run_len > 0 {
                tokens += run_len.div_ceil(4);
            }
            tokens
        }

        pub fn truncate_to_tokens(text: &str, max_tokens: usize) -> String {
            if count_tokens(text) <= max_tokens {
                return text.to_string();
            }
            let words: Vec<&str> = text.split_inclusive(char::is_whitespace).collect();
            let half_budget = max_tokens.saturating_sub(4) / 2;
            let mut head = String::new();
            let mut used = 0usize;
            let mut head_end = 0usize;
            for (i, w) in words.iter().enumerate() {
                let t = count_tokens(w);
                if used + t > half_budget {
                    head_end = i;
                    break;
                }
                head.push_str(w);
                used += t;
                head_end = i + 1;
            }
            let mut tail = String::new();
            used = 0;
            let mut tail_start = words.len();
            for (i, w) in words.iter().enumerate().rev() {
                if i < head_end {
                    break;
                }
                let t = count_tokens(w);
                if used + t > half_budget {
                    break;
                }
                tail.insert_str(0, w);
                used += t;
                tail_start = i;
            }
            if tail_start <= head_end {
                format!("{head}{tail}")
            } else {
                format!("{head}\n…\n{tail}")
            }
        }
    }

    #[test]
    fn whitespace_classes_match_char_rule() {
        for b in 0u8..128 {
            let s = (b as char).to_string();
            assert_eq!(count_tokens(&s), reference::count_tokens(&s), "byte {b:#x}");
            let around = format!("ab{s}cd");
            assert_eq!(
                count_tokens(&around),
                reference::count_tokens(&around),
                "byte {b:#x}"
            );
        }
    }

    #[test]
    fn count_matches_references_at_every_chunk_offset() {
        for text in mixed_cuts() {
            let want = reference::count_tokens(&text);
            assert_eq!(count_tokens(&text), want, "{text:?}");
            assert_eq!(reference::count_tokens_by_class(&text), want, "{text:?}");
        }
        // Runs of every length across chunk edges, in and out of ASCII.
        for len in 0..40 {
            for lead in 0..CHUNK {
                for sep in [" ", ".", "é", "\u{a0}"] {
                    let text = format!(
                        "{}{}{sep}{}",
                        ",".repeat(lead),
                        "a".repeat(len),
                        "b".repeat(len)
                    );
                    assert_eq!(
                        count_tokens(&text),
                        reference::count_tokens(&text),
                        "{text:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn truncate_borrows_what_fits() {
        assert!(matches!(
            truncate_to_tokens("short text", 100),
            Cow::Borrowed(_)
        ));
        // Longer than the budget in bytes, shorter in tokens: still borrowed.
        assert!(matches!(
            truncate_to_tokens("internationalization", 5),
            Cow::Borrowed(_)
        ));
        assert!(matches!(
            truncate_to_tokens("internationalization", 4),
            Cow::Owned(_)
        ));
    }

    #[test]
    fn truncate_large_document_matches_reference() {
        let text = "Lorem ipsum dolor sit amet, consectetur adipiscing elit. ".repeat(3000);
        for budget in [0, 3, 9, 1000, 20_000] {
            assert_eq!(
                truncate_to_tokens(&text, budget),
                reference::truncate_to_tokens(&text, budget),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(count_tokens(""), 0);
    }

    #[test]
    fn whitespace_is_free() {
        assert_eq!(count_tokens("   \n\t  "), 0);
    }

    #[test]
    fn short_words_are_one_token() {
        assert_eq!(count_tokens("the cat sat"), 3);
    }

    #[test]
    fn long_words_split() {
        // "internationalization" = 20 chars -> 5 tokens
        assert_eq!(count_tokens("internationalization"), 5);
    }

    #[test]
    fn punctuation_counts() {
        assert_eq!(count_tokens("a,b"), 3);
        assert_eq!(count_tokens("end."), 2);
    }

    #[test]
    fn url_costs_multiple_tokens() {
        let n = count_tokens("https://portal.gdc.cancer.gov/projects/TCGA-COAD");
        assert!(n >= 10, "urls should be token-expensive, got {n}");
    }

    #[test]
    fn truncate_noop_when_fits() {
        assert_eq!(truncate_to_tokens("short text", 100), "short text");
    }

    #[test]
    fn truncate_keeps_head_and_tail() {
        let text = format!(
            "Title: colorectal cancer study\n{}\nURL: https://portal.example.org/data\n",
            "filler words here ".repeat(500)
        );
        let cut = truncate_to_tokens(&text, 200);
        assert!(count_tokens(&cut) <= 210, "got {}", count_tokens(&cut));
        assert!(cut.contains("colorectal cancer"), "head lost");
        assert!(cut.contains("portal.example.org"), "tail lost");
        assert!(cut.contains('…'));
    }

    #[test]
    fn truncate_respects_budget_property() {
        for budget in [16, 64, 256] {
            let text = "word ".repeat(2000);
            let cut = truncate_to_tokens(&text, budget);
            assert!(count_tokens(&cut) <= budget + 8, "budget {budget}");
        }
    }

    proptest! {
        #[test]
        fn count_matches_reference(text in odd_text()) {
            prop_assert_eq!(count_tokens(&text), reference::count_tokens(&text));
            prop_assert_eq!(count_tokens(&text), reference::count_tokens_by_class(&text));
            prop_assert!(count_tokens(&text) <= text.len());
        }

        #[test]
        fn count_matches_reference_on_ascii(text in ascii_text()) {
            prop_assert_eq!(count_tokens(&text), reference::count_tokens(&text));
            prop_assert_eq!(count_tokens(&text), reference::count_tokens_by_class(&text));
        }

        #[test]
        fn truncate_matches_reference(text in odd_text(), budget in 0usize..80) {
            let want = reference::truncate_to_tokens(&text, budget);
            prop_assert_eq!(truncate_to_tokens(&text, budget), want);
        }

        #[test]
        fn truncate_never_exceeds_budget_much(
            text in "[a-z ]{0,400}", budget in 8usize..64
        ) {
            let cut = truncate_to_tokens(&text, budget);
            prop_assert!(count_tokens(&cut) <= budget + 8);
        }

        #[test]
        fn monotone_under_concat(a in ".{0,64}", b in ".{0,64}") {
            let ab = format!("{a}{b}");
            prop_assert!(count_tokens(&ab) >= count_tokens(&a).max(count_tokens(&b)) ||
                // Concatenation can merge two short runs into one longer run,
                // which never *reduces* the count below either side by more
                // than the merge saving of one token.
                count_tokens(&ab) + 1 >= count_tokens(&a).max(count_tokens(&b)));
        }

        #[test]
        fn bounded_by_char_count(s in ".{0,256}") {
            prop_assert!(count_tokens(&s) <= s.chars().count());
        }

        #[test]
        fn concat_subadditive(a in "[a-z ]{0,64}", b in "[a-z ]{0,64}") {
            let ab = format!("{a}{b}");
            prop_assert!(count_tokens(&ab) <= count_tokens(&a) + count_tokens(&b) + 1);
        }
    }
}
