//! Columnar execution engine: cohorts stored one typed column per
//! question, filters compiled to selection vectors, and the hot
//! aggregations re-implemented as serial / parallel kernels.
//!
//! The row engine ([`crate::cohort::Cohort`]) evaluates every query
//! respondent-at-a-time over `Vec<Response>`, paying a `BTreeMap` lookup
//! and a string compare per answer touched. At survey scale (hundreds of
//! rows) that is fine; at the 10-million-respondent populations the E21
//! scaling study runs, it is the whole cost. This module stores the same
//! data column-wise:
//!
//! * **single-choice** → dictionary-encoded `u32` codes, where the
//!   dictionary is the schema's option list in presentation order (code =
//!   option index), so no separate intern table is needed and rebuilt
//!   `Answer`s are byte-identical;
//! * **multi-choice** → one `u64` bitset per row (option `i` ↔ bit `i`;
//!   schemas offering more than 64 options are rejected up front);
//! * **Likert** → `u8` points; **numeric** → `f64`; **free text** →
//!   offsets into one shared byte buffer;
//! * every column carries a validity [`Bitmap`] — bit set ⇔ the
//!   respondent answered the item (an *empty* multi-choice selection is
//!   answered: "none of the above").
//!
//! [`Filter`]s compile to bitmap AND/OR/NOT over 64-bit words
//! ([`ColumnarCohort::select`]), and the aggregation kernels
//! ([`Engine`]) run over row chunks with per-chunk partial counts merged
//! in chunk order. The chunk grid depends only on `(n_rows, chunk_rows)`
//! — never on the thread count or steal timing — so every tier merges the
//! same partials in the same order and results are reproducible run to
//! run. Integer counts are identical across tiers unconditionally;
//! floating-point sums are identical across tiers whenever the addends
//! are dyadic rationals with partial sums below 2^53 (true for Likert
//! points, core counts, and half-integer year values — the survey's
//! entire numeric surface), because every partial sum is then exact and
//! reassociation cannot change it.

use std::collections::HashMap;
use std::sync::Mutex;

use rcr_kernels::bitmap::{words_for, Bitmap, WORD_BITS};
use rcr_kernels::par::{self, Scheduler};

use crate::cohort::Cohort;
use crate::query::Filter;
use crate::response::{Answer, Response};
use crate::schema::{QuestionKind, Schema};
use crate::{Error, Result};

/// Maximum number of options a multi-choice question may offer in
/// columnar form (one bit per option in a `u64` row bitset).
pub const MAX_MULTI_OPTIONS: usize = 64;

/// Default rows per parallel chunk (a multiple of 64 so chunk borders
/// fall on bitmap word boundaries).
pub const DEFAULT_CHUNK_ROWS: usize = 64 * 1024;

/// Typed storage for one question's answers across all rows. Slots for
/// rows that skipped the item hold a neutral default (code 0, empty
/// bitset, 0, 0.0, empty text) and are masked off by the column's
/// validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Single-choice: dictionary code per row (index into the schema's
    /// option list).
    Single(
        /// Option codes, one per row.
        Vec<u32>,
    ),
    /// Multi-choice: option bitset per row (option `i` ↔ bit `i`).
    Multi(
        /// Selection bitsets, one per row.
        Vec<u64>,
    ),
    /// Likert: raw scale point per row.
    Likert(
        /// Scale points, one per row.
        Vec<u8>,
    ),
    /// Numeric: value per row.
    Numeric(
        /// Values, one per row (0.0 for skipped rows).
        Vec<f64>,
    ),
    /// Free text: per-row spans into one shared byte buffer.
    Text {
        /// `offsets[i]..offsets[i + 1]` spans row `i`'s text.
        offsets: Vec<u32>,
        /// Concatenated UTF-8 text of every answered row.
        bytes: String,
    },
}

/// One question's column: typed data plus the validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Typed answer storage.
    pub data: ColumnData,
    /// Bit `i` set ⇔ row `i` answered this question.
    pub valid: Bitmap,
}

/// A cohort in columnar layout: one [`Column`] per schema question, in
/// schema order.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarCohort {
    name: String,
    year: u16,
    schema: Schema,
    n_rows: usize,
    ids: Option<Vec<String>>,
    columns: Vec<Column>,
}

/// Incremental writer for [`ColumnarCohort`]: call
/// [`ColumnarBuilder::begin_row`] once per respondent, then `set_*` for
/// each answered item. This is the streaming entry point the synthetic
/// generator uses to emit millions of rows without materializing
/// `Response` structs.
#[derive(Debug)]
pub struct ColumnarBuilder {
    name: String,
    year: u16,
    schema: Schema,
    keep_ids: bool,
    ids: Vec<String>,
    n_rows: usize,
    cols: Vec<BuildCol>,
    index: HashMap<String, usize>,
}

#[derive(Debug)]
struct BuildCol {
    qid: String,
    data: ColumnData,
    valid: Vec<u64>,
    /// option → code for choice columns; empty otherwise.
    codes: HashMap<String, u32>,
    /// Likert scale points (0 for other kinds).
    points: u8,
    /// Numeric bounds.
    min: Option<f64>,
    max: Option<f64>,
}

impl ColumnarBuilder {
    /// Starts an empty columnar cohort for `schema`. Respondent ids are
    /// not recorded (materialized rows get synthetic `row-{i}` ids); call
    /// [`ColumnarBuilder::keep_ids`] to retain them.
    ///
    /// # Errors
    /// [`Error::InvalidSchema`] when a multi-choice question offers more
    /// than [`MAX_MULTI_OPTIONS`] options.
    pub fn new(name: impl Into<String>, year: u16, schema: Schema) -> Result<Self> {
        let mut cols = Vec::with_capacity(schema.len());
        let mut index = HashMap::with_capacity(schema.len());
        for (k, q) in schema.questions().iter().enumerate() {
            let mut codes = HashMap::new();
            let mut points = 0u8;
            let (mut min, mut max) = (None, None);
            let data = match &q.kind {
                QuestionKind::SingleChoice { options } => {
                    for (c, o) in options.iter().enumerate() {
                        codes.insert(o.clone(), c as u32);
                    }
                    ColumnData::Single(Vec::new())
                }
                QuestionKind::MultiChoice { options } => {
                    if options.len() > MAX_MULTI_OPTIONS {
                        return Err(Error::InvalidSchema(format!(
                            "question `{}` offers {} options; columnar multi-choice \
                             supports at most {MAX_MULTI_OPTIONS}",
                            q.id,
                            options.len()
                        )));
                    }
                    for (c, o) in options.iter().enumerate() {
                        codes.insert(o.clone(), c as u32);
                    }
                    ColumnData::Multi(Vec::new())
                }
                QuestionKind::Likert { points: p } => {
                    points = *p;
                    ColumnData::Likert(Vec::new())
                }
                QuestionKind::Numeric { min: lo, max: hi } => {
                    min = *lo;
                    max = *hi;
                    ColumnData::Numeric(Vec::new())
                }
                QuestionKind::FreeText => ColumnData::Text {
                    offsets: vec![0],
                    bytes: String::new(),
                },
            };
            index.insert(q.id.clone(), k);
            cols.push(BuildCol {
                qid: q.id.clone(),
                data,
                valid: Vec::new(),
                codes,
                points,
                min,
                max,
            });
        }
        Ok(ColumnarBuilder {
            name: name.into(),
            year,
            schema,
            keep_ids: false,
            ids: Vec::new(),
            n_rows: 0,
            cols,
            index,
        })
    }

    /// Records respondent ids so materialized rows keep their original
    /// identifiers (required for lossless `Cohort` round-trips).
    pub fn keep_ids(mut self) -> Self {
        self.keep_ids = true;
        self
    }

    /// Column index for a question id, usable with the `set_*` methods
    /// (cheaper than a by-id lookup per answer in tight loops).
    pub fn column_of(&self, question_id: &str) -> Option<usize> {
        self.index.get(question_id).copied()
    }

    /// Appends a new all-skipped row; subsequent `set_*` calls fill it.
    /// `id` is recorded only under [`ColumnarBuilder::keep_ids`].
    pub fn begin_row(&mut self, id: Option<&str>) {
        if self.keep_ids {
            self.ids.push(id.unwrap_or("").to_owned());
        }
        let grow_word = self.n_rows.is_multiple_of(WORD_BITS);
        self.n_rows += 1;
        for col in &mut self.cols {
            if grow_word {
                col.valid.push(0);
            }
            match &mut col.data {
                ColumnData::Single(codes) => codes.push(0),
                ColumnData::Multi(masks) => masks.push(0),
                ColumnData::Likert(values) => values.push(0),
                ColumnData::Numeric(values) => values.push(0.0),
                ColumnData::Text { offsets, bytes } => offsets.push(bytes.len() as u32),
            }
        }
    }

    fn mark_valid(col: &mut BuildCol, row: usize) {
        col.valid[row / WORD_BITS] |= 1u64 << (row % WORD_BITS);
    }

    fn row(&self) -> usize {
        assert!(self.n_rows > 0, "set_* before begin_row");
        self.n_rows - 1
    }

    /// Sets the current row's single-choice answer.
    ///
    /// # Errors
    /// [`Error::AnswerKindMismatch`] when column `k` is not
    /// single-choice; [`Error::UnknownOption`] for options not offered.
    pub fn set_choice(&mut self, k: usize, option: &str) -> Result<()> {
        let row = self.row();
        let col = &mut self.cols[k];
        let ColumnData::Single(codes_vec) = &mut col.data else {
            return Err(kind_mismatch(&col.qid, &col.data, "single-choice"));
        };
        let code = *col.codes.get(option).ok_or_else(|| Error::UnknownOption {
            question: col.qid.clone(),
            option: option.to_owned(),
        })?;
        codes_vec[row] = code;
        Self::mark_valid(col, row);
        Ok(())
    }

    /// Sets the current row's multi-choice answer. An empty iterator is a
    /// valid answer ("none of the above") and marks the row answered.
    ///
    /// # Errors
    /// Kind mismatch, unknown option, or an option selected twice
    /// (mirroring [`crate::response::Response::validate`]).
    pub fn set_choices<'a, I>(&mut self, k: usize, options: I) -> Result<()>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let row = self.row();
        let col = &mut self.cols[k];
        let ColumnData::Multi(masks) = &mut col.data else {
            return Err(kind_mismatch(&col.qid, &col.data, "multi-choice"));
        };
        let mut mask = 0u64;
        for option in options {
            let code = *col.codes.get(option).ok_or_else(|| Error::UnknownOption {
                question: col.qid.clone(),
                option: option.to_owned(),
            })?;
            let bit = 1u64 << code;
            if mask & bit != 0 {
                return Err(Error::UnknownOption {
                    question: col.qid.clone(),
                    option: format!("{option} (selected twice)"),
                });
            }
            mask |= bit;
        }
        masks[row] = mask;
        Self::mark_valid(col, row);
        Ok(())
    }

    /// Sets the current row's Likert answer.
    ///
    /// # Errors
    /// Kind mismatch or [`Error::ScaleOutOfRange`].
    pub fn set_scale(&mut self, k: usize, value: u8) -> Result<()> {
        let row = self.row();
        let col = &mut self.cols[k];
        let ColumnData::Likert(values) = &mut col.data else {
            return Err(kind_mismatch(&col.qid, &col.data, "likert"));
        };
        if !(1..=col.points).contains(&value) {
            return Err(Error::ScaleOutOfRange {
                question: col.qid.clone(),
                value,
                points: col.points,
            });
        }
        values[row] = value;
        Self::mark_valid(col, row);
        Ok(())
    }

    /// Sets the current row's numeric answer.
    ///
    /// # Errors
    /// Kind mismatch or [`Error::NumberOutOfRange`] (non-finite or
    /// outside the declared bounds).
    pub fn set_number(&mut self, k: usize, value: f64) -> Result<()> {
        let row = self.row();
        let col = &mut self.cols[k];
        let ColumnData::Numeric(values) = &mut col.data else {
            return Err(kind_mismatch(&col.qid, &col.data, "numeric"));
        };
        if !value.is_finite()
            || col.min.is_some_and(|lo| value < lo)
            || col.max.is_some_and(|hi| value > hi)
        {
            return Err(Error::NumberOutOfRange {
                question: col.qid.clone(),
                value,
            });
        }
        values[row] = value;
        Self::mark_valid(col, row);
        Ok(())
    }

    /// Sets the current row's free-text answer (at most once per row —
    /// the text buffer is append-only).
    ///
    /// # Errors
    /// [`Error::AnswerKindMismatch`] when column `k` is not free-text.
    pub fn set_text(&mut self, k: usize, text: &str) -> Result<()> {
        let row = self.row();
        let col = &mut self.cols[k];
        let ColumnData::Text { offsets, bytes } = &mut col.data else {
            return Err(kind_mismatch(&col.qid, &col.data, "free-text"));
        };
        debug_assert_eq!(
            offsets[row] as usize,
            bytes.len(),
            "set_text called twice for one row"
        );
        bytes.push_str(text);
        offsets[row + 1] = bytes.len() as u32;
        Self::mark_valid(col, row);
        Ok(())
    }

    /// Sets the current row's answer to `question_id`, dispatching on the
    /// answer's shape — the row-by-row conversion path
    /// [`ColumnarCohort::from_cohort`] uses.
    ///
    /// # Errors
    /// [`Error::UnknownQuestion`] plus the per-kind `set_*` errors.
    pub fn set_answer(&mut self, question_id: &str, answer: &Answer) -> Result<()> {
        let k = self
            .column_of(question_id)
            .ok_or_else(|| Error::UnknownQuestion(question_id.to_owned()))?;
        match answer {
            Answer::Choice(c) => self.set_choice(k, c),
            Answer::Choices(cs) => self.set_choices(k, cs.iter().map(String::as_str)),
            Answer::Scale(v) => self.set_scale(k, *v),
            Answer::Number(v) => self.set_number(k, *v),
            Answer::Text(t) => self.set_text(k, t),
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True before the first [`ColumnarBuilder::begin_row`].
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Finalizes the columns into an immutable [`ColumnarCohort`].
    pub fn finish(self) -> ColumnarCohort {
        let n = self.n_rows;
        let columns = self
            .cols
            .into_iter()
            .map(|c| Column {
                data: c.data,
                valid: Bitmap::from_words(c.valid, n),
            })
            .collect();
        ColumnarCohort {
            name: self.name,
            year: self.year,
            schema: self.schema,
            n_rows: n,
            ids: self.keep_ids.then_some(self.ids),
            columns,
        }
    }
}

fn kind_mismatch(qid: &str, data: &ColumnData, got: &'static str) -> Error {
    let expected = match data {
        ColumnData::Single(_) => "single-choice",
        ColumnData::Multi(_) => "multi-choice",
        ColumnData::Likert(_) => "likert",
        ColumnData::Numeric(_) => "numeric",
        ColumnData::Text { .. } => "free-text",
    };
    Error::AnswerKindMismatch {
        question: qid.to_owned(),
        expected,
        got,
    }
}

impl ColumnarCohort {
    /// Converts a validated row cohort to columnar form, retaining
    /// respondent ids for lossless round-tripping.
    ///
    /// # Errors
    /// [`Error::InvalidSchema`] for multi-choice questions with more than
    /// [`MAX_MULTI_OPTIONS`] options.
    pub fn from_cohort(cohort: &Cohort) -> Result<Self> {
        let mut b =
            ColumnarBuilder::new(cohort.name(), cohort.year(), cohort.schema().clone())?.keep_ids();
        for r in cohort.responses() {
            b.begin_row(Some(&r.respondent));
            for (qid, answer) in r.iter() {
                b.set_answer(qid, answer)?;
            }
        }
        Ok(b.finish())
    }

    /// Cohort name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Survey year.
    pub fn year(&self) -> u16 {
        self.year
    }

    /// The questionnaire.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (respondents).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// True when the cohort holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Respondent ids, when retained at build time.
    pub fn ids(&self) -> Option<&[String]> {
        self.ids.as_deref()
    }

    /// True when both cohorts hold identical columns over the same schema
    /// — the data-equality check used to compare a streamed build against
    /// a row-converted one (ignores name and retained ids).
    pub fn same_data(&self, other: &ColumnarCohort) -> bool {
        self.year == other.year
            && self.schema == other.schema
            && self.n_rows == other.n_rows
            && self.columns == other.columns
    }

    /// Column index and storage for a question id.
    fn col(&self, question_id: &str) -> Option<&Column> {
        self.schema
            .questions()
            .iter()
            .position(|q| q.id == question_id)
            .map(|k| &self.columns[k])
    }

    /// Number of rows that answered `question_id` (0 for unknown ids).
    pub fn n_answered(&self, question_id: &str) -> u64 {
        self.col(question_id).map_or(0, |c| c.valid.count_ones())
    }

    /// Item response rate (answered / rows).
    pub fn response_rate(&self, question_id: &str) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.n_answered(question_id) as f64 / self.n_rows as f64
    }

    /// Mean completion rate across rows, summed in row order with the
    /// same per-respondent `answered / schema_len` terms as
    /// [`Cohort::mean_completion`] so the two engines agree bitwise.
    pub fn mean_completion(&self) -> f64 {
        if self.n_rows == 0 || self.schema.is_empty() {
            return 0.0;
        }
        let mut per_row = vec![0u32; self.n_rows];
        for c in &self.columns {
            for i in c.valid.iter_ones() {
                per_row[i] += 1;
            }
        }
        let len = self.schema.len() as f64;
        per_row.iter().map(|&cnt| f64::from(cnt) / len).sum::<f64>() / self.n_rows as f64
    }

    /// Compiles `filter` to a selection bitmap (serial).
    ///
    /// Semantics match [`Filter::matches`] row for row: missing answers,
    /// unknown questions, unknown options, and kind mismatches all
    /// evaluate to *false*, never error.
    pub fn select(&self, filter: &Filter) -> Bitmap {
        self.select_with(filter, 1)
    }

    /// Compiles `filter` to a selection bitmap, splitting the word range
    /// into up to `threads` bands evaluated in parallel (each band walks
    /// the whole filter tree over its rows; bands write disjoint words).
    pub fn select_with(&self, filter: &Filter, threads: usize) -> Bitmap {
        let n_words = words_for(self.n_rows);
        let mut words = vec![0u64; n_words];
        if threads <= 1 || n_words < 4 {
            self.eval_into(filter, &mut words, 0);
        } else {
            par::for_each_mut_chunk(&mut words, threads, |offset, band| {
                self.eval_into(filter, band, offset);
            });
        }
        Bitmap::from_words(words, self.n_rows)
    }

    /// Number of rows matching `filter` (serial compile + popcount).
    pub fn count_filtered(&self, filter: &Filter) -> u64 {
        self.select(filter).count_ones()
    }

    /// Evaluates `filter` over the word band `out`, whose first word is
    /// global word `word_base`. Tail bits of the global last word may be
    /// set by inner NOTs; [`Bitmap::from_words`] masks them at the end.
    fn eval_into(&self, filter: &Filter, out: &mut [u64], word_base: usize) {
        match filter {
            Filter::All => out.fill(u64::MAX),
            Filter::Answered(q) => {
                if let Some(c) = self.col(q) {
                    let src = &c.valid.words()[word_base..word_base + out.len()];
                    out.copy_from_slice(src);
                } else {
                    out.fill(0);
                }
            }
            Filter::ChoiceIs { question, option } => {
                let hit = self.col(question).and_then(|c| match &c.data {
                    ColumnData::Single(codes) => {
                        let target = self
                            .schema
                            .question(question)
                            .and_then(|q| option_code(&q.kind, option))?;
                        Some((codes, &c.valid, target))
                    }
                    _ => None,
                });
                match hit {
                    Some((codes, valid, target)) => {
                        pack_rows(out, word_base, self.n_rows, valid, |r| codes[r] == target);
                    }
                    None => out.fill(0),
                }
            }
            Filter::Selected { question, option } => {
                let hit = self.col(question).and_then(|c| match &c.data {
                    ColumnData::Multi(masks) => {
                        let bit = self
                            .schema
                            .question(question)
                            .and_then(|q| option_code(&q.kind, option))?;
                        Some((masks, &c.valid, 1u64 << bit))
                    }
                    _ => None,
                });
                match hit {
                    Some((masks, valid, bit)) => {
                        pack_rows(out, word_base, self.n_rows, valid, |r| masks[r] & bit != 0);
                    }
                    None => out.fill(0),
                }
            }
            Filter::ScaleAtLeast { question, min } => match self.col(question) {
                Some(Column {
                    data: ColumnData::Likert(values),
                    valid,
                }) => pack_rows(out, word_base, self.n_rows, valid, |r| values[r] >= *min),
                _ => out.fill(0),
            },
            Filter::NumberInRange { question, lo, hi } => match self.col(question) {
                Some(Column {
                    data: ColumnData::Numeric(values),
                    valid,
                }) => pack_rows(out, word_base, self.n_rows, valid, |r| {
                    (*lo..=*hi).contains(&values[r])
                }),
                _ => out.fill(0),
            },
            Filter::And(a, b) => {
                self.eval_into(a, out, word_base);
                let mut tmp = vec![0u64; out.len()];
                self.eval_into(b, &mut tmp, word_base);
                for (x, y) in out.iter_mut().zip(&tmp) {
                    *x &= y;
                }
            }
            Filter::Or(a, b) => {
                self.eval_into(a, out, word_base);
                let mut tmp = vec![0u64; out.len()];
                self.eval_into(b, &mut tmp, word_base);
                for (x, y) in out.iter_mut().zip(&tmp) {
                    *x |= y;
                }
            }
            Filter::Not(f) => {
                self.eval_into(f, out, word_base);
                for x in out.iter_mut() {
                    *x = !*x;
                }
            }
        }
    }

    /// Materializes rows `start..end` back into `Response` structs, in
    /// row order. Multi-choice selections come back in schema option
    /// order (the canonical order the generator emits); ids fall back to
    /// `row-{i}` when none were retained.
    ///
    /// # Panics
    /// When `start > end` or `end > n_rows`.
    pub fn rows_to_responses(&self, start: usize, end: usize) -> Vec<Response> {
        assert!(start <= end && end <= self.n_rows, "bad row range");
        let questions = self.schema.questions();
        (start..end)
            .map(|i| {
                let mut r = match &self.ids {
                    Some(ids) => Response::new(ids[i].clone()),
                    None => Response::new(format!("row-{i}")),
                };
                for (q, c) in questions.iter().zip(&self.columns) {
                    if !c.valid.get(i) {
                        continue;
                    }
                    let answer = match &c.data {
                        ColumnData::Single(codes) => {
                            Answer::Choice(q.kind.options()[codes[i] as usize].clone())
                        }
                        ColumnData::Multi(masks) => {
                            let options = q.kind.options();
                            let mut m = masks[i];
                            let mut picked = Vec::with_capacity(m.count_ones() as usize);
                            while m != 0 {
                                picked.push(options[m.trailing_zeros() as usize].clone());
                                m &= m - 1;
                            }
                            Answer::Choices(picked)
                        }
                        ColumnData::Likert(values) => Answer::Scale(values[i]),
                        ColumnData::Numeric(values) => Answer::Number(values[i]),
                        ColumnData::Text { offsets, bytes } => Answer::Text(
                            bytes[offsets[i] as usize..offsets[i + 1] as usize].to_owned(),
                        ),
                    };
                    r.set(&q.id, answer);
                }
                r
            })
            .collect()
    }

    /// Materializes the whole cohort back into row form (answers were
    /// validated on the way in, so the rebuild skips re-validation).
    pub fn to_cohort(&self) -> Cohort {
        Cohort::from_validated_parts(
            self.name.clone(),
            self.year,
            self.schema.clone(),
            self.rows_to_responses(0, self.n_rows),
        )
    }

    /// Serial single-choice tabulation (see
    /// [`Cohort::single_choice_counts`]; same output, same errors).
    ///
    /// # Errors
    /// [`Error::UnknownQuestion`] or a kind mismatch.
    pub fn single_choice_counts(&self, question_id: &str) -> Result<(Vec<(String, u64)>, u64)> {
        Engine::serial().single_choice_counts(self, question_id, None)
    }

    /// Serial multi-choice tabulation (see
    /// [`Cohort::multi_choice_counts`]).
    ///
    /// # Errors
    /// [`Error::UnknownQuestion`] or a kind mismatch.
    pub fn multi_choice_counts(&self, question_id: &str) -> Result<(Vec<(String, u64)>, u64)> {
        Engine::serial().multi_choice_counts(self, question_id, None)
    }

    /// Serial selected-count (see [`Cohort::selected_count`]).
    ///
    /// # Errors
    /// Same conditions as [`Cohort::selected_count`].
    pub fn selected_count(&self, question_id: &str, option: &str) -> Result<(u64, u64)> {
        Engine::serial().selected_count(self, question_id, option, None)
    }

    /// Likert scores in row order, skipping non-respondents (bitwise
    /// equal to [`Cohort::likert_scores`]).
    ///
    /// # Errors
    /// [`Error::UnknownQuestion`] or a kind mismatch.
    pub fn likert_scores(&self, question_id: &str) -> Result<Vec<f64>> {
        let c = self.require_kind(question_id, "likert")?;
        let ColumnData::Likert(values) = &c.data else {
            unreachable!("require_kind checked the column kind");
        };
        Ok(c.valid.iter_ones().map(|r| f64::from(values[r])).collect())
    }

    /// Numeric answers in row order (bitwise equal to
    /// [`Cohort::numeric_values`]).
    ///
    /// # Errors
    /// [`Error::UnknownQuestion`] or a kind mismatch.
    pub fn numeric_values(&self, question_id: &str) -> Result<Vec<f64>> {
        let c = self.require_kind(question_id, "numeric")?;
        let ColumnData::Numeric(values) = &c.data else {
            unreachable!("require_kind checked the column kind");
        };
        Ok(c.valid.iter_ones().map(|r| values[r]).collect())
    }

    /// Resolves a question id to its column, erroring like the row
    /// engine when absent or of the wrong kind.
    fn require_kind(&self, question_id: &str, expected: &'static str) -> Result<&Column> {
        let q = self.schema.require(question_id)?;
        if q.kind.name() != expected {
            return Err(Error::AnswerKindMismatch {
                question: question_id.to_owned(),
                expected,
                got: q.kind.name(),
            });
        }
        Ok(self.col(question_id).expect("schema question has a column"))
    }
}

/// Looks up an option's dictionary code in a choice question's option
/// list (None for non-choice kinds or unknown options).
fn option_code(kind: &QuestionKind, option: &str) -> Option<u32> {
    kind.options()
        .iter()
        .position(|o| o == option)
        .map(|i| i as u32)
}

/// Packs `pred(row) && valid(row)` into the word band `out` starting at
/// global word `word_base`.
fn pack_rows<P: Fn(usize) -> bool>(
    out: &mut [u64],
    word_base: usize,
    n_rows: usize,
    valid: &Bitmap,
    pred: P,
) {
    let vwords = valid.words();
    for (wi, w) in out.iter_mut().enumerate() {
        let word = word_base + wi;
        let base = word * WORD_BITS;
        let top = (base + WORD_BITS).min(n_rows);
        let mut bits = 0u64;
        for r in base..top {
            bits |= u64::from(pred(r)) << (r - base);
        }
        *w = bits & vwords[word];
    }
}

/// Execution tier for the aggregation kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Single-threaded, one pass over the column.
    Serial,
    /// Row chunks fanned out over the work-stealing pool.
    Parallel,
}

impl Tier {
    /// Stable display name used in tables and figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Serial => "columnar",
            Tier::Parallel => "columnar+parallel",
        }
    }
}

/// Configured executor for columnar aggregations: a [`Tier`], a thread
/// count, and the chunk grain.
///
/// The chunk grid is derived from `(n_rows, chunk_rows)` alone and
/// partials are merged in ascending chunk order, so results do not
/// depend on the thread count or execution timing.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    /// Which execution tier to run.
    pub tier: Tier,
    /// Worker threads for the parallel tier.
    pub threads: usize,
    /// Rows per chunk; rounded up to a multiple of 64 so chunk borders
    /// fall on bitmap word boundaries.
    pub chunk_rows: usize,
}

impl Engine {
    /// The serial reference engine.
    pub fn serial() -> Self {
        Engine {
            tier: Tier::Serial,
            threads: 1,
            chunk_rows: DEFAULT_CHUNK_ROWS,
        }
    }

    /// Parallel scalar engine on the work-stealing pool.
    pub fn parallel(threads: usize) -> Self {
        Engine {
            tier: Tier::Parallel,
            threads: threads.max(1),
            chunk_rows: DEFAULT_CHUNK_ROWS,
        }
    }

    /// Word-aligned chunk grain actually used.
    fn grain(&self) -> usize {
        let c = self.chunk_rows.max(WORD_BITS);
        c.div_ceil(WORD_BITS) * WORD_BITS
    }

    /// Runs `make(start, end)` over the chunk grid and returns the
    /// partials in ascending chunk order. Serial tier uses a single
    /// chunk; the parallel tier collects `(chunk, partial)` pairs under a
    /// mutex and sorts them, so the merge order is the grid order regardless
    /// of scheduler interleaving.
    fn run_partials<P, F>(&self, n_rows: usize, make: F) -> Vec<P>
    where
        P: Send,
        F: Fn(usize, usize) -> P + Sync,
    {
        if n_rows == 0 {
            return Vec::new();
        }
        let grain = self.grain();
        let n_chunks = n_rows.div_ceil(grain);
        if self.tier == Tier::Serial || self.threads <= 1 || n_chunks == 1 {
            return (0..n_chunks)
                .map(|c| make(c * grain, ((c + 1) * grain).min(n_rows)))
                .collect();
        }
        let slots: Mutex<Vec<(usize, P)>> = Mutex::new(Vec::with_capacity(n_chunks));
        Scheduler::WorkStealing.for_each(n_chunks, self.threads, 1, |s, e| {
            for c in s..e {
                let p = make(c * grain, ((c + 1) * grain).min(n_rows));
                slots
                    .lock()
                    .expect("partial collector poisoned")
                    .push((c, p));
            }
        });
        let mut collected = slots.into_inner().expect("partial collector poisoned");
        collected.sort_unstable_by_key(|(c, _)| *c);
        collected.into_iter().map(|(_, p)| p).collect()
    }

    /// Rows selected by `sel`, counted chunk-wise.
    pub fn count(&self, cohort: &ColumnarCohort, sel: &Bitmap) -> u64 {
        self.run_partials(cohort.n_rows(), |s, e| sel.count_ones_range(s, e))
            .into_iter()
            .sum()
    }

    /// Single-choice tabulation over the (optionally `sel`-restricted)
    /// rows: per-option counts in schema order plus the answered total.
    /// Identical output to [`Cohort::single_choice_counts`] on the full
    /// cohort.
    ///
    /// # Errors
    /// [`Error::UnknownQuestion`] or a kind mismatch.
    pub fn single_choice_counts(
        &self,
        cohort: &ColumnarCohort,
        question_id: &str,
        sel: Option<&Bitmap>,
    ) -> Result<(Vec<(String, u64)>, u64)> {
        let c = cohort.require_kind(question_id, "single-choice")?;
        let ColumnData::Single(codes) = &c.data else {
            unreachable!("require_kind checked the column kind");
        };
        let options = cohort
            .schema()
            .question(question_id)
            .expect("question exists")
            .kind
            .options();
        let n_opts = options.len();
        let partials = self.run_partials(cohort.n_rows(), |s, e| {
            let mut counts = vec![0u64; n_opts];
            each_selected_row(&c.valid, sel, s, e, |r| {
                counts[codes[r] as usize] += 1;
            });
            counts
        });
        let mut counts = vec![0u64; n_opts];
        for p in partials {
            for (a, b) in counts.iter_mut().zip(&p) {
                *a += b;
            }
        }
        let total = counts.iter().sum();
        Ok((options.iter().cloned().zip(counts).collect(), total))
    }

    /// Multi-choice tabulation over the (optionally `sel`-restricted)
    /// rows: per-option selection counts plus the answered denominator.
    /// Identical output to [`Cohort::multi_choice_counts`] on the full
    /// cohort.
    ///
    /// # Errors
    /// [`Error::UnknownQuestion`] or a kind mismatch.
    pub fn multi_choice_counts(
        &self,
        cohort: &ColumnarCohort,
        question_id: &str,
        sel: Option<&Bitmap>,
    ) -> Result<(Vec<(String, u64)>, u64)> {
        let c = cohort.require_kind(question_id, "multi-choice")?;
        let ColumnData::Multi(masks) = &c.data else {
            unreachable!("require_kind checked the column kind");
        };
        let options = cohort
            .schema()
            .question(question_id)
            .expect("question exists")
            .kind
            .options();
        let n_opts = options.len();
        let partials = self.run_partials(cohort.n_rows(), |s, e| {
            let mut counts = vec![0u64; n_opts];
            let mut answered = 0u64;
            each_selected_row(&c.valid, sel, s, e, |r| {
                answered += 1;
                let mut m = masks[r];
                while m != 0 {
                    counts[m.trailing_zeros() as usize] += 1;
                    m &= m - 1;
                }
            });
            (counts, answered)
        });
        let mut counts = vec![0u64; n_opts];
        let mut answered = 0u64;
        for (p, a) in partials {
            answered += a;
            for (x, y) in counts.iter_mut().zip(&p) {
                *x += y;
            }
        }
        Ok((options.iter().cloned().zip(counts).collect(), answered))
    }

    /// Selection count for one multi-choice option (see
    /// [`Cohort::selected_count`]).
    ///
    /// # Errors
    /// Same conditions as [`Cohort::selected_count`], including
    /// [`Error::UnknownOption`].
    pub fn selected_count(
        &self,
        cohort: &ColumnarCohort,
        question_id: &str,
        option: &str,
        sel: Option<&Bitmap>,
    ) -> Result<(u64, u64)> {
        let (counts, answered) = self.multi_choice_counts(cohort, question_id, sel)?;
        let c = counts
            .iter()
            .find(|(o, _)| o == option)
            .map(|(_, n)| *n)
            .ok_or_else(|| Error::UnknownOption {
                question: question_id.to_owned(),
                option: option.to_owned(),
            })?;
        Ok((c, answered))
    }

    /// Sum and count of the Likert scores over the (optionally
    /// `sel`-restricted) rows. The serial tier folds in row order, so
    /// `sum / count` equals the row engine's mean bitwise; the parallel
    /// tier merges chunk partials in chunk order (exact for the survey's
    /// dyadic values).
    ///
    /// # Errors
    /// [`Error::UnknownQuestion`] or a kind mismatch.
    pub fn likert_sum_count(
        &self,
        cohort: &ColumnarCohort,
        question_id: &str,
        sel: Option<&Bitmap>,
    ) -> Result<(f64, u64)> {
        let c = cohort.require_kind(question_id, "likert")?;
        let ColumnData::Likert(values) = &c.data else {
            unreachable!("require_kind checked the column kind");
        };
        let partials = self.run_partials(cohort.n_rows(), |s, e| {
            let mut sum = 0.0;
            let mut count = 0u64;
            each_selected_row(&c.valid, sel, s, e, |r| {
                sum += f64::from(values[r]);
                count += 1;
            });
            (sum, count)
        });
        Ok(partials
            .into_iter()
            .fold((0.0, 0), |(s, n), (ps, pn)| (s + ps, n + pn)))
    }

    /// Mean Likert score (`NaN` when nobody answered), built from
    /// [`Engine::likert_sum_count`].
    ///
    /// # Errors
    /// [`Error::UnknownQuestion`] or a kind mismatch.
    pub fn likert_mean(
        &self,
        cohort: &ColumnarCohort,
        question_id: &str,
        sel: Option<&Bitmap>,
    ) -> Result<f64> {
        let (sum, count) = self.likert_sum_count(cohort, question_id, sel)?;
        Ok(sum / count as f64)
    }

    /// Sum and count of the numeric answers over the (optionally
    /// `sel`-restricted) rows. Tier semantics as for
    /// [`Engine::likert_sum_count`].
    ///
    /// # Errors
    /// [`Error::UnknownQuestion`] or a kind mismatch.
    pub fn numeric_sum_count(
        &self,
        cohort: &ColumnarCohort,
        question_id: &str,
        sel: Option<&Bitmap>,
    ) -> Result<(f64, u64)> {
        let c = cohort.require_kind(question_id, "numeric")?;
        let ColumnData::Numeric(values) = &c.data else {
            unreachable!("require_kind checked the column kind");
        };
        let partials = self.run_partials(cohort.n_rows(), |s, e| {
            let mut sum = 0.0;
            let mut count = 0u64;
            each_selected_row(&c.valid, sel, s, e, |r| {
                sum += values[r];
                count += 1;
            });
            (sum, count)
        });
        Ok(partials
            .into_iter()
            .fold((0.0, 0), |(s, n), (ps, pn)| (s + ps, n + pn)))
    }

    /// Cross-tabulation of two single-choice questions over rows that
    /// answered both: a `rows × cols` grid of joint counts in schema
    /// option order.
    ///
    /// # Errors
    /// [`Error::UnknownQuestion`] or a kind mismatch on either question.
    pub fn crosstab(
        &self,
        cohort: &ColumnarCohort,
        row_question: &str,
        col_question: &str,
        sel: Option<&Bitmap>,
    ) -> Result<Crosstab> {
        let ca = cohort.require_kind(row_question, "single-choice")?;
        let cb = cohort.require_kind(col_question, "single-choice")?;
        let (ColumnData::Single(a_codes), ColumnData::Single(b_codes)) = (&ca.data, &cb.data)
        else {
            unreachable!("require_kind checked the column kinds");
        };
        let row_options: Vec<String> = cohort
            .schema()
            .question(row_question)
            .expect("question exists")
            .kind
            .options()
            .to_vec();
        let col_options: Vec<String> = cohort
            .schema()
            .question(col_question)
            .expect("question exists")
            .kind
            .options()
            .to_vec();
        let (n_a, n_b) = (row_options.len(), col_options.len());
        let partials = self.run_partials(cohort.n_rows(), |s, e| {
            let mut grid = vec![0u64; n_a * n_b];
            each_joint_row(&ca.valid, &cb.valid, sel, s, e, |r| {
                grid[a_codes[r] as usize * n_b + b_codes[r] as usize] += 1;
            });
            grid
        });
        let mut counts = vec![0u64; n_a * n_b];
        for p in partials {
            for (x, y) in counts.iter_mut().zip(&p) {
                *x += y;
            }
        }
        let total = counts.iter().sum();
        Ok(Crosstab {
            row_options,
            col_options,
            counts,
            total,
        })
    }
}

/// Joint counts of two single-choice questions, from
/// [`Engine::crosstab`].
#[derive(Debug, Clone, PartialEq)]
pub struct Crosstab {
    /// Row question's options, in schema order.
    pub row_options: Vec<String>,
    /// Column question's options, in schema order.
    pub col_options: Vec<String>,
    /// `counts[i * col_options.len() + j]` rows picked `(i, j)`.
    pub counts: Vec<u64>,
    /// Rows that answered both questions.
    pub total: u64,
}

impl Crosstab {
    /// Count at `(row option i, col option j)`.
    pub fn at(&self, i: usize, j: usize) -> u64 {
        self.counts[i * self.col_options.len() + j]
    }
}

/// Calls `body(row)` for every row in `[start, end)` whose validity bit
/// (AND the optional selection bit) is set, in ascending row order.
/// `start` is word-aligned by construction of the chunk grid, except for
/// the serial single-chunk case where it is 0.
fn each_selected_row<F: FnMut(usize)>(
    valid: &Bitmap,
    sel: Option<&Bitmap>,
    start: usize,
    end: usize,
    mut body: F,
) {
    debug_assert_eq!(start % WORD_BITS, 0, "chunk start must be word-aligned");
    let vwords = valid.words();
    let w0 = start / WORD_BITS;
    let w1 = end.div_ceil(WORD_BITS);
    for (w, &vword) in vwords.iter().enumerate().take(w1).skip(w0) {
        let mut m = vword;
        if let Some(s) = sel {
            m &= s.words()[w];
        }
        if w == w1 - 1 && !end.is_multiple_of(WORD_BITS) {
            m &= (1u64 << (end % WORD_BITS)) - 1;
        }
        let base = w * WORD_BITS;
        while m != 0 {
            body(base + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// [`each_selected_row`] over the intersection of two validity bitmaps.
fn each_joint_row<F: FnMut(usize)>(
    valid_a: &Bitmap,
    valid_b: &Bitmap,
    sel: Option<&Bitmap>,
    start: usize,
    end: usize,
    mut body: F,
) {
    debug_assert_eq!(start % WORD_BITS, 0, "chunk start must be word-aligned");
    let (wa, wb) = (valid_a.words(), valid_b.words());
    let w0 = start / WORD_BITS;
    let w1 = end.div_ceil(WORD_BITS);
    for w in w0..w1 {
        let mut m = wa[w] & wb[w];
        if let Some(s) = sel {
            m &= s.words()[w];
        }
        if w == w1 - 1 && !end.is_multiple_of(WORD_BITS) {
            m &= (1u64 << (end % WORD_BITS)) - 1;
        }
        let base = w * WORD_BITS;
        while m != 0 {
            body(base + m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::filter_cohort;
    use crate::schema::Question;

    fn schema() -> Schema {
        Schema::builder("s")
            .question(Question::new(
                "field",
                "?",
                QuestionKind::single_choice(["physics", "biology", "cs"]),
            ))
            .question(Question::new(
                "stage",
                "?",
                QuestionKind::single_choice(["phd", "faculty"]),
            ))
            .question(Question::new(
                "langs",
                "?",
                QuestionKind::multi_choice(["py", "c", "rust"]),
            ))
            .question(Question::new("pain", "?", QuestionKind::likert(5)))
            .question(Question::new(
                "cores",
                "?",
                QuestionKind::numeric(Some(0.0), None),
            ))
            .question(Question::new("notes", "?", QuestionKind::FreeText))
            .build()
            .unwrap()
    }

    /// 70 rows so the bitmap spans two words, with a skip pattern that
    /// exercises every column's validity handling.
    fn row_cohort() -> Cohort {
        let mut c = Cohort::new("t", 2024, schema());
        for i in 0..70usize {
            let mut r = Response::new(format!("r{i}"));
            r.set("field", Answer::choice(["physics", "biology", "cs"][i % 3]));
            if i % 7 != 0 {
                r.set("stage", Answer::choice(["phd", "faculty"][i % 2]));
            }
            if i % 5 != 0 {
                let mut langs: Vec<&str> = Vec::new();
                if i % 2 == 0 {
                    langs.push("py");
                }
                if i % 3 == 0 {
                    langs.push("c");
                }
                if i % 4 == 0 {
                    langs.push("rust");
                }
                r.set("langs", Answer::choices(langs));
            }
            if i % 4 != 1 {
                r.set("pain", Answer::Scale((i % 5) as u8 + 1));
            }
            if i % 6 != 2 {
                r.set("cores", Answer::Number((1 << (i % 8)) as f64));
            }
            if i % 9 == 0 {
                r.set("notes", Answer::Text(format!("note {i}")));
            }
            c.push(r).unwrap();
        }
        c
    }

    #[test]
    fn round_trips_through_columnar_form() {
        let c = row_cohort();
        let cc = ColumnarCohort::from_cohort(&c).unwrap();
        assert_eq!(cc.n_rows(), 70);
        let back = cc.to_cohort();
        assert_eq!(c, back);
    }

    #[test]
    fn aggregations_match_row_engine_bitwise() {
        let c = row_cohort();
        let cc = ColumnarCohort::from_cohort(&c).unwrap();
        assert_eq!(
            c.single_choice_counts("field").unwrap(),
            cc.single_choice_counts("field").unwrap()
        );
        assert_eq!(
            c.multi_choice_counts("langs").unwrap(),
            cc.multi_choice_counts("langs").unwrap()
        );
        assert_eq!(
            c.selected_count("langs", "rust").unwrap(),
            cc.selected_count("langs", "rust").unwrap()
        );
        assert_eq!(
            c.likert_scores("pain").unwrap(),
            cc.likert_scores("pain").unwrap()
        );
        assert_eq!(
            c.numeric_values("cores").unwrap(),
            cc.numeric_values("cores").unwrap()
        );
        assert_eq!(
            c.mean_completion().to_bits(),
            cc.mean_completion().to_bits()
        );
        assert_eq!(c.n_answered("stage") as u64, cc.n_answered("stage"));
    }

    #[test]
    fn errors_match_row_engine() {
        let c = row_cohort();
        let cc = ColumnarCohort::from_cohort(&c).unwrap();
        assert_eq!(
            c.single_choice_counts("langs").unwrap_err(),
            cc.single_choice_counts("langs").unwrap_err()
        );
        assert_eq!(
            c.multi_choice_counts("ghost").unwrap_err(),
            cc.multi_choice_counts("ghost").unwrap_err()
        );
        assert_eq!(
            c.selected_count("langs", "svn").unwrap_err(),
            cc.selected_count("langs", "svn").unwrap_err()
        );
        assert_eq!(
            c.likert_scores("field").unwrap_err(),
            cc.likert_scores("field").unwrap_err()
        );
        assert_eq!(
            c.numeric_values("pain").unwrap_err(),
            cc.numeric_values("pain").unwrap_err()
        );
    }

    #[test]
    fn selection_matches_filter_semantics() {
        let c = row_cohort();
        let cc = ColumnarCohort::from_cohort(&c).unwrap();
        let filters = [
            Filter::All,
            Filter::choice_is("field", "physics"),
            Filter::choice_is("field", "nope"),
            Filter::choice_is("ghost", "x"),
            Filter::choice_is("langs", "py"), // kind mismatch -> false
            Filter::selected("langs", "py"),
            Filter::selected("langs", "zig"),
            Filter::scale_at_least("pain", 4),
            Filter::scale_at_least("pain", 0), // matches all answered
            Filter::number_in_range("cores", 4.0, 32.0),
            Filter::answered("stage"),
            Filter::answered("ghost"),
            Filter::choice_is("field", "physics").and(Filter::selected("langs", "py")),
            Filter::scale_at_least("pain", 5).or(Filter::number_in_range("cores", 1.0, 2.0)),
            Filter::choice_is("field", "biology").not(),
            Filter::answered("stage").not().and(Filter::All),
        ];
        for f in &filters {
            let bm = cc.select(f);
            for (i, r) in c.responses().iter().enumerate() {
                assert_eq!(bm.get(i), f.matches(r), "filter {} row {i}", f.describe());
            }
            assert_eq!(
                cc.count_filtered(f),
                c.count_where(|r| f.matches(r)) as u64,
                "count for {}",
                f.describe()
            );
            assert_eq!(
                filter_cohort(&c, f).len() as u64,
                cc.count_filtered(f),
                "vs filter_cohort for {}",
                f.describe()
            );
            // Banded parallel evaluation selects the same rows.
            assert_eq!(
                cc.select_with(f, 4),
                bm,
                "banded select for {}",
                f.describe()
            );
        }
    }

    #[test]
    fn tiers_agree_on_counts_and_dyadic_sums() {
        let c = row_cohort();
        let cc = ColumnarCohort::from_cohort(&c).unwrap();
        let sel = cc.select(&Filter::choice_is("field", "physics"));
        let engines = [Engine::serial(), Engine::parallel(4)];
        // Tiny chunks force multi-chunk merging even at 70 rows.
        for mut e in engines {
            e.chunk_rows = 64;
            let serial = Engine::serial();
            assert_eq!(e.count(&cc, &sel), serial.count(&cc, &sel));
            assert_eq!(
                e.single_choice_counts(&cc, "stage", Some(&sel)).unwrap(),
                serial
                    .single_choice_counts(&cc, "stage", Some(&sel))
                    .unwrap()
            );
            assert_eq!(
                e.multi_choice_counts(&cc, "langs", None).unwrap(),
                serial.multi_choice_counts(&cc, "langs", None).unwrap()
            );
            let (sum, count) = e.likert_sum_count(&cc, "pain", None).unwrap();
            let (ssum, scount) = serial.likert_sum_count(&cc, "pain", None).unwrap();
            // Likert points are small integers: sums are exact, so every
            // tier agrees bitwise.
            assert_eq!((sum.to_bits(), count), (ssum.to_bits(), scount));
            let (nsum, ncount) = e.numeric_sum_count(&cc, "cores", Some(&sel)).unwrap();
            let (snsum, sncount) = serial.numeric_sum_count(&cc, "cores", Some(&sel)).unwrap();
            assert_eq!((nsum.to_bits(), ncount), (snsum.to_bits(), sncount));
            let ct = e.crosstab(&cc, "field", "stage", None).unwrap();
            let sct = serial.crosstab(&cc, "field", "stage", None).unwrap();
            assert_eq!(ct, sct);
        }
    }

    #[test]
    fn serial_mean_matches_row_engine_bitwise() {
        let c = row_cohort();
        let cc = ColumnarCohort::from_cohort(&c).unwrap();
        let scores = c.likert_scores("pain").unwrap();
        let row_mean = scores.iter().sum::<f64>() / scores.len() as f64;
        let col_mean = Engine::serial().likert_mean(&cc, "pain", None).unwrap();
        assert_eq!(row_mean.to_bits(), col_mean.to_bits());
    }

    #[test]
    fn crosstab_counts_joint_answers() {
        let c = row_cohort();
        let cc = ColumnarCohort::from_cohort(&c).unwrap();
        let ct = Engine::serial()
            .crosstab(&cc, "field", "stage", None)
            .unwrap();
        assert_eq!(ct.row_options.len(), 3);
        assert_eq!(ct.col_options.len(), 2);
        let mut expect = vec![0u64; 6];
        let mut total = 0u64;
        for r in c.responses() {
            let (Some(f), Some(s)) = (
                r.answer("field").and_then(Answer::as_choice),
                r.answer("stage").and_then(Answer::as_choice),
            ) else {
                continue;
            };
            let fi = ["physics", "biology", "cs"]
                .iter()
                .position(|o| *o == f)
                .unwrap();
            let si = ["phd", "faculty"].iter().position(|o| *o == s).unwrap();
            expect[fi * 2 + si] += 1;
            total += 1;
        }
        assert_eq!(ct.counts, expect);
        assert_eq!(ct.total, total);
        assert_eq!(ct.at(0, 1), expect[1]);
    }

    #[test]
    fn streaming_builder_matches_row_conversion() {
        let c = row_cohort();
        let via_rows = ColumnarCohort::from_cohort(&c).unwrap();
        let mut b = ColumnarBuilder::new("t", 2024, schema()).unwrap();
        for r in c.responses() {
            b.begin_row(None);
            for (qid, a) in r.iter() {
                b.set_answer(qid, a).unwrap();
            }
        }
        let streamed = b.finish();
        assert!(streamed.same_data(&via_rows));
        assert!(streamed.ids().is_none());
        assert_eq!(via_rows.ids().unwrap().len(), 70);
    }

    #[test]
    fn builder_validates_like_the_row_engine() {
        let mut b = ColumnarBuilder::new("t", 2024, schema()).unwrap();
        b.begin_row(None);
        assert!(matches!(
            b.set_choice(b.column_of("field").unwrap(), "alchemy"),
            Err(Error::UnknownOption { .. })
        ));
        assert!(matches!(
            b.set_scale(b.column_of("pain").unwrap(), 9),
            Err(Error::ScaleOutOfRange { .. })
        ));
        assert!(matches!(
            b.set_number(b.column_of("cores").unwrap(), -1.0),
            Err(Error::NumberOutOfRange { .. })
        ));
        assert!(matches!(
            b.set_number(b.column_of("cores").unwrap(), f64::NAN),
            Err(Error::NumberOutOfRange { .. })
        ));
        let langs = b.column_of("langs").unwrap();
        assert!(matches!(
            b.set_choices(langs, ["py", "py"]),
            Err(Error::UnknownOption { .. })
        ));
        assert!(matches!(
            b.set_choice(langs, "py"),
            Err(Error::AnswerKindMismatch { .. })
        ));
        // Empty multi-choice marks the row answered.
        b.set_choices(langs, []).unwrap();
        let cc = b.finish();
        assert_eq!(cc.multi_choice_counts("langs").unwrap().1, 1);
    }

    #[test]
    fn wide_multi_choice_schema_rejected() {
        let opts: Vec<String> = (0..65).map(|i| format!("opt{i}")).collect();
        let s = Schema::builder("wide")
            .question(Question::new("q", "?", QuestionKind::multi_choice(opts)))
            .build()
            .unwrap();
        assert!(matches!(
            ColumnarBuilder::new("w", 2024, s),
            Err(Error::InvalidSchema(_))
        ));
    }

    #[test]
    fn empty_cohort_behaves() {
        let cc = ColumnarBuilder::new("e", 2024, schema()).unwrap().finish();
        assert!(cc.is_empty());
        assert_eq!(cc.count_filtered(&Filter::All), 0);
        assert_eq!(cc.single_choice_counts("field").unwrap().1, 0);
        assert_eq!(cc.mean_completion(), 0.0);
        assert!(cc.to_cohort().is_empty());
    }
}
