//! Dense bitmaps over 64-bit words — the selection-vector substrate the
//! columnar survey engine compiles its filter DSL onto.
//!
//! A [`Bitmap`] stores one bit per row, packed little-endian within each
//! `u64` word (row `i` lives at bit `i % 64` of word `i / 64`). Callers
//! combine selections word-at-a-time, so an AND/OR/NOT over a 10-million
//! row selection touches ~156 K words, not 10 M branches; counting is a
//! `popcount` loop the compiler vectorizes. Bits past `len` are kept zero
//! by every operation (including [`Bitmap::from_words`]), which is what
//! makes `count_ones` and word-wise iteration correct without per-call
//! masking.

/// A fixed-length bitmap packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

/// Number of bits per storage word.
pub const WORD_BITS: usize = 64;

/// Number of words needed to hold `len` bits.
#[inline]
pub fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

impl Bitmap {
    /// Wraps pre-packed words as a `len`-bit bitmap. The vector is resized
    /// to exactly [`words_for`]`(len)` words and tail bits are cleared, so
    /// callers may hand over a buffer they filled word-at-a-time.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(words_for(len), 0);
        let r = len % WORD_BITS;
        if r != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << r) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// Number of bits (rows) the bitmap covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length bitmap.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `i`.
    ///
    /// # Panics
    /// When `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// The backing words (tail bits beyond `len` are always zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// In-place intersection.
    ///
    /// # Panics
    /// On length mismatch.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Number of set bits (word-wise popcount).
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Number of set bits within the half-open row range `[start, end)`.
    ///
    /// # Panics
    /// When `start > end` or `end > len`.
    pub fn count_ones_range(&self, start: usize, end: usize) -> u64 {
        assert!(start <= end && end <= self.len, "bad range {start}..{end}");
        if start == end {
            return 0;
        }
        let (w0, b0) = (start / WORD_BITS, start % WORD_BITS);
        let (w1, b1) = (end / WORD_BITS, end % WORD_BITS);
        let head_mask = !((1u64 << b0) - 1);
        if w0 == w1 {
            let tail = if b1 == 0 { u64::MAX } else { (1u64 << b1) - 1 };
            return u64::from((self.words[w0] & head_mask & tail).count_ones());
        }
        let mut total = u64::from((self.words[w0] & head_mask).count_ones());
        for w in &self.words[w0 + 1..w1] {
            total += u64::from(w.count_ones());
        }
        if b1 != 0 {
            total += u64::from((self.words[w1] & ((1u64 << b1) - 1)).count_ones());
        }
        total
    }

    /// Iterator over the indices of the set bits, ascending. Each word
    /// yields its set positions via `trailing_zeros`, so cost is
    /// proportional to the number of set bits plus the word count.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors(if word == 0 { None } else { Some(word) }, |&w| {
                let w = w & (w - 1);
                if w == 0 {
                    None
                } else {
                    Some(w)
                }
            })
            .map(move |w| wi * WORD_BITS + w.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs `f` evaluated at every index, 64 rows per word.
    fn from_fn(len: usize, f: impl Fn(usize) -> bool) -> Bitmap {
        let mut words = vec![0u64; words_for(len)];
        for i in (0..len).filter(|&i| f(i)) {
            words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
        }
        Bitmap::from_words(words, len)
    }

    #[test]
    fn construction_and_bit_access() {
        let zero = Bitmap::from_words(Vec::new(), 130);
        assert_eq!(zero.len(), 130);
        assert_eq!(zero.words().len(), 3);
        assert_eq!(zero.count_ones(), 0);
        let b = from_fn(130, |i| matches!(i, 0 | 64 | 129));
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn from_words_masks_tail() {
        let b = Bitmap::from_words(vec![u64::MAX; 2], 70);
        assert_eq!(b.count_ones(), 70);
        assert_eq!(b.words()[1], (1u64 << 6) - 1);
        let empty = Bitmap::from_words(vec![u64::MAX], 0);
        assert!(empty.is_empty());
        assert!(empty.words().is_empty());
    }

    #[test]
    fn from_fn_matches_per_bit_sets() {
        let b = from_fn(200, |i| i % 3 == 0);
        for i in 0..200 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(b.count_ones(), 67);
    }

    #[test]
    fn boolean_algebra() {
        let n = 150;
        let a = from_fn(n, |i| i % 2 == 0);
        let b = from_fn(n, |i| i % 3 == 0);
        let mut and = a.clone();
        and.and_assign(&b);
        for i in 0..n {
            assert_eq!(and.get(i), i % 6 == 0);
        }
        assert_eq!(and.count_ones(), 25);
    }

    #[test]
    fn range_popcount_agrees_with_scan() {
        let b = from_fn(300, |i| (i * 7) % 5 < 2);
        for (s, e) in [(0, 0), (0, 300), (3, 64), (64, 128), (10, 250), (63, 65)] {
            let expect = (s..e).filter(|&i| b.get(i)).count() as u64;
            assert_eq!(b.count_ones_range(s, e), expect, "{s}..{e}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::from_words(Vec::new(), 10).get(10);
    }
}
