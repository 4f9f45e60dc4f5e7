//! Data sources and the dataset registry.
//!
//! Paper §3: "The first step when building a pipeline is to define an input
//! dataset — this could either be a local folder, for which every file will
//! constitute an individual record; or an iterable object in memory, for
//! which every item will be a record. Additionally, more experienced users
//! can define any custom logic to marshal arbitrary objects or paths into
//! input datasets."
//!
//! * [`MemorySource`] — iterable-in-memory mode;
//! * [`DirectorySource`] — local-folder mode (one record per file; the
//!   `PDFFile` schema's "text extraction" is substitution S4);
//! * any `impl DataSource` — the custom-marshalling mode;
//! * [`DataRegistry`] — named registration, what the chat tool
//!   `register_dataset` talks to.

use crate::error::{PzError, PzResult};
use crate::record::{DataRecord, Value};
use crate::schema::Schema;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A stream of record batches from a source. Each item is one chunk of at
/// most the requested size; errors surface per-batch so a failure halfway
/// through an out-of-core scan doesn't silently truncate the corpus.
pub type RecordBatchIter = Box<dyn Iterator<Item = PzResult<Vec<DataRecord>>> + Send>;

/// A registered input dataset.
pub trait DataSource: Send + Sync {
    /// Registry name.
    fn name(&self) -> &str;
    /// Schema of the records this source yields.
    fn schema(&self) -> Schema;
    /// Materialize all records. Record ids are assigned by the caller's
    /// id space via the `base_id` offset.
    fn records(&self, base_id: u64) -> PzResult<Vec<DataRecord>>;
    /// Stream records in chunks of at most `chunk_size` (0 = one batch
    /// holding everything). The default materializes [`records`] and then
    /// chunks it — correct for every source, out-of-core for none; sources
    /// that can generate records on demand (e.g. [`GeneratedSource`])
    /// override this so at most O(chunk) records are ever resident.
    ///
    /// Contract: concatenating the batches in order must equal
    /// `records(base_id)` byte-for-byte, at every chunk size — the chunked
    /// differential suite holds every executor path to this.
    fn batches(&self, base_id: u64, chunk_size: usize) -> PzResult<RecordBatchIter> {
        Ok(chunk_records(self.records(base_id)?, chunk_size))
    }
    /// Number of records, if cheaply known (used by the cost model).
    fn cardinality_hint(&self) -> Option<usize> {
        None
    }
    /// Downcast hook for sources that accept live edits (the REPL's
    /// `:append` finds the change-stream interface through this).
    fn as_versioned(&self) -> Option<&VersionedSource> {
        None
    }
}

/// Split an already-materialized record vector into a batch stream.
pub fn chunk_records(all: Vec<DataRecord>, chunk_size: usize) -> RecordBatchIter {
    if chunk_size == 0 || all.len() <= chunk_size {
        return Box::new(std::iter::once(Ok(all)));
    }
    struct Chunks {
        rest: std::vec::IntoIter<DataRecord>,
        chunk: usize,
    }
    impl Iterator for Chunks {
        type Item = PzResult<Vec<DataRecord>>;
        fn next(&mut self) -> Option<Self::Item> {
            let batch: Vec<DataRecord> = self.rest.by_ref().take(self.chunk).collect();
            if batch.is_empty() {
                None
            } else {
                Some(Ok(batch))
            }
        }
    }
    Box::new(Chunks {
        rest: all.into_iter(),
        chunk: chunk_size,
    })
}

/// Generator signature for [`GeneratedSource`]: index → `(filename,
/// content)`. Must be pure per index (same index, same output) — the
/// executor may call it more than once for the same record (e.g. a legacy
/// full materialization and a chunked re-scan must agree).
pub type RecordGenerator = Arc<dyn Fn(usize) -> (String, String) + Send + Sync>;

/// A source whose records are *computed*, not stored: each record is a
/// pure function of its index. `records()` still materializes everything
/// (legacy paths — mid-plan scans, join build sides — need that), but
/// `batches()` generates each chunk on demand, so an out-of-core scan over
/// a million-record corpus holds at most `chunk_size` records at a time.
/// This is the registry-side mate of `pz-datagen`'s streamed corpora.
pub struct GeneratedSource {
    name: String,
    schema: Schema,
    len: usize,
    generator: RecordGenerator,
}

impl GeneratedSource {
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        len: usize,
        generator: impl Fn(usize) -> (String, String) + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            schema,
            len,
            generator: Arc::new(generator),
        }
    }

    fn record_at(&self, base_id: u64, index: usize) -> DataRecord {
        let (filename, content) = (self.generator)(index);
        DataRecord::new(base_id + index as u64)
            .with_field("filename", filename.as_str())
            .with_field("contents", parse_content(&filename, &content))
    }
}

impl DataSource for GeneratedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn records(&self, base_id: u64) -> PzResult<Vec<DataRecord>> {
        Ok((0..self.len).map(|i| self.record_at(base_id, i)).collect())
    }

    fn batches(&self, base_id: u64, chunk_size: usize) -> PzResult<RecordBatchIter> {
        let chunk = if chunk_size == 0 {
            self.len.max(1)
        } else {
            chunk_size
        };
        let generator = Arc::clone(&self.generator);
        let len = self.len;
        if len == 0 {
            return Ok(Box::new(std::iter::once(Ok(Vec::new()))));
        }
        let iter = (0..len).step_by(chunk).map(move |start| {
            let end = (start + chunk).min(len);
            let mut out = Vec::with_capacity(end - start);
            for i in start..end {
                let (filename, content) = generator(i);
                out.push(
                    DataRecord::new(base_id + i as u64)
                        .with_field("filename", filename.as_str())
                        .with_field("contents", parse_content(&filename, &content)),
                );
            }
            Ok(out)
        });
        Ok(Box::new(iter))
    }

    fn cardinality_hint(&self) -> Option<usize> {
        Some(self.len)
    }
}

/// Version stamp of a [`VersionedSource`]: bumped once per applied change
/// batch, with the record count after the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DatasetVersion {
    /// Monotone change-batch counter (0 = the base corpus).
    pub version: u64,
    /// Records in the dataset at this version.
    pub records: usize,
}

/// One edit to a versioned dataset, keyed by `filename`.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum DatasetChange {
    /// Add a new record at the end of the dataset.
    Append { filename: String, content: String },
    /// Replace the content of an existing record (no-op if absent).
    Update { filename: String, content: String },
    /// Remove a record (no-op if absent).
    Delete { filename: String },
}

/// One stored document, parsed once: its filename and its `contents`
/// value. Every record scanned from it shares both.
type Item = (Arc<str>, Value);

fn parse_item(filename: &str, raw: &str) -> Item {
    (filename.into(), parse_content(filename, raw))
}

/// Consumes `items` one at a time, so each raw document is freed as soon
/// as its parsed copy exists.
fn parse_items(items: Vec<(String, String)>) -> Vec<Item> {
    items.into_iter().map(|(f, c)| parse_item(&f, &c)).collect()
}

/// The record for stored item `i`. Its text is two reference-count
/// bumps; no document bytes are copied.
fn item_record(base_id: u64, i: usize, (filename, contents): &Item) -> DataRecord {
    DataRecord::new(base_id + i as u64)
        .with_field("filename", Arc::clone(filename))
        .with_field("contents", contents.clone())
}

/// A [`MemorySource`] that accepts append/update/delete change batches
/// between runs: the change-stream view of a dataset a session re-runs
/// against, where the response cache bills only the records an edit
/// touched. Register once; edits apply in place through
/// interior mutability, so no re-registration is needed and every clone of
/// the owning context observes the new version on its next `records()`.
pub struct VersionedSource {
    name: String,
    schema: Schema,
    items: RwLock<Vec<Item>>,
    version: std::sync::atomic::AtomicU64,
}

impl VersionedSource {
    pub fn new(name: impl Into<String>, schema: Schema, items: Vec<(String, String)>) -> Self {
        Self {
            name: name.into(),
            schema,
            items: RwLock::new(parse_items(items)),
            version: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Apply one batch of changes atomically and bump the version.
    pub fn apply(&self, changes: &[DatasetChange]) -> DatasetVersion {
        let mut items = self.items.write();
        for change in changes {
            match change {
                DatasetChange::Append { filename, content } => {
                    items.push(parse_item(filename, content));
                }
                DatasetChange::Update { filename, content } => {
                    if let Some(slot) = items.iter_mut().find(|(f, _)| **f == **filename) {
                        slot.1 = parse_content(filename, content);
                    }
                }
                DatasetChange::Delete { filename } => {
                    items.retain(|(f, _)| **f != **filename);
                }
            }
        }
        let version = self
            .version
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        DatasetVersion {
            version,
            records: items.len(),
        }
    }

    /// Append a single record (one-change batch).
    pub fn append(
        &self,
        filename: impl Into<String>,
        content: impl Into<String>,
    ) -> DatasetVersion {
        self.apply(&[DatasetChange::Append {
            filename: filename.into(),
            content: content.into(),
        }])
    }

    /// Replace one record's content (one-change batch).
    pub fn update(
        &self,
        filename: impl Into<String>,
        content: impl Into<String>,
    ) -> DatasetVersion {
        self.apply(&[DatasetChange::Update {
            filename: filename.into(),
            content: content.into(),
        }])
    }

    /// Delete one record (one-change batch).
    pub fn delete(&self, filename: impl Into<String>) -> DatasetVersion {
        self.apply(&[DatasetChange::Delete {
            filename: filename.into(),
        }])
    }

    /// Current version stamp.
    pub fn version(&self) -> DatasetVersion {
        DatasetVersion {
            version: self.version.load(std::sync::atomic::Ordering::Relaxed),
            records: self.items.read().len(),
        }
    }
}

impl DataSource for VersionedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn records(&self, base_id: u64) -> PzResult<Vec<DataRecord>> {
        Ok(self
            .items
            .read()
            .iter()
            .enumerate()
            .map(|(i, item)| item_record(base_id, i, item))
            .collect())
    }

    fn cardinality_hint(&self) -> Option<usize> {
        Some(self.items.read().len())
    }

    fn as_versioned(&self) -> Option<&VersionedSource> {
        Some(self)
    }
}

/// In-memory source: each `(filename, content)` item becomes one record.
/// Items are parsed once, here; every scan hands out shared text.
pub struct MemorySource {
    name: String,
    schema: Schema,
    items: Vec<Item>,
}

impl MemorySource {
    pub fn new(name: impl Into<String>, schema: Schema, items: Vec<(String, String)>) -> Self {
        Self {
            name: name.into(),
            schema,
            items: parse_items(items),
        }
    }

    /// Convenience: wrap plain strings with synthesized filenames.
    pub fn from_texts(name: impl Into<String>, schema: Schema, texts: Vec<String>) -> Self {
        let items = texts
            .into_iter()
            .enumerate()
            .map(|(i, t)| (format!("item-{i:04}.txt"), t))
            .collect();
        Self::new(name, schema, items)
    }
}

impl DataSource for MemorySource {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn records(&self, base_id: u64) -> PzResult<Vec<DataRecord>> {
        Ok(self
            .items
            .iter()
            .enumerate()
            .map(|(i, item)| item_record(base_id, i, item))
            .collect())
    }

    fn cardinality_hint(&self) -> Option<usize> {
        Some(self.items.len())
    }
}

/// Local-folder source: one record per file (sorted by name for
/// determinism).
pub struct DirectorySource {
    name: String,
    schema: Schema,
    dir: PathBuf,
}

impl DirectorySource {
    pub fn new(name: impl Into<String>, schema: Schema, dir: impl AsRef<Path>) -> Self {
        Self {
            name: name.into(),
            schema,
            dir: dir.as_ref().to_path_buf(),
        }
    }

    /// The folder's files, sorted by name: one record each.
    fn files(&self) -> PzResult<Vec<PathBuf>> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .map_err(|e| PzError::Execution(format!("read_dir {}: {e}", self.dir.display())))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        paths.sort();
        Ok(paths)
    }
}

impl DataSource for DirectorySource {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> Schema {
        self.schema.clone()
    }

    fn records(&self, base_id: u64) -> PzResult<Vec<DataRecord>> {
        let paths = self.files()?;
        let mut out = Vec::with_capacity(paths.len());
        for (i, p) in paths.iter().enumerate() {
            let filename = p
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_default();
            let raw = std::fs::read_to_string(p)
                .map_err(|e| PzError::Execution(format!("read {}: {e}", p.display())))?;
            out.push(
                DataRecord::new(base_id + i as u64)
                    .with_field("filename", filename.as_str())
                    .with_field("contents", parse_content(&filename, &raw)),
            );
        }
        Ok(out)
    }

    /// The file count: one directory listing, no file read.
    fn cardinality_hint(&self) -> Option<usize> {
        self.files().ok().map(|f| f.len())
    }
}

/// "Parse" file contents per extension. Substitution S4: synthetic "PDFs"
/// are text wrapped in a trivial envelope, and parsing strips it — the
/// downstream code paths are identical to real PDF text extraction.
fn parse_content(filename: &str, raw: &str) -> Value {
    let text = if filename.ends_with(".pdf") {
        raw.strip_prefix("%PDF-SIM\n")
            .map(|s| s.strip_suffix("\n%%EOF").unwrap_or(s))
            .unwrap_or(raw)
    } else {
        raw
    };
    Value::from(text)
}

/// Wrap plain text in the simulated-PDF envelope (used by tests and the
/// datagen-to-disk helpers).
pub fn wrap_pdf(text: &str) -> String {
    format!("%PDF-SIM\n{text}\n%%EOF")
}

/// Thread-safe registry of named datasets. Clones share state.
#[derive(Clone, Default)]
pub struct DataRegistry {
    sources: Arc<RwLock<BTreeMap<String, Arc<dyn DataSource>>>>,
}

impl DataRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a source under its own name.
    pub fn register(&self, source: Arc<dyn DataSource>) {
        self.sources
            .write()
            .insert(source.name().to_string(), source);
    }

    pub fn get(&self, name: &str) -> PzResult<Arc<dyn DataSource>> {
        self.sources
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PzError::UnknownDataset(name.to_string()))
    }

    pub fn names(&self) -> Vec<String> {
        self.sources.read().keys().cloned().collect()
    }

    pub fn contains(&self, name: &str) -> bool {
        self.sources.read().contains_key(name)
    }
}

/// Signature of a user-defined filter predicate.
pub type FilterUdf = Arc<dyn Fn(&DataRecord) -> bool + Send + Sync>;
/// Signature of a user-defined record transform.
pub type MapUdf = Arc<dyn Fn(&DataRecord) -> DataRecord + Send + Sync>;

/// Registry of user-defined functions usable in plans ("a natural language
/// predicate *or UDF*", paper §2.1). Clones share state.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    filters: Arc<RwLock<BTreeMap<String, FilterUdf>>>,
    maps: Arc<RwLock<BTreeMap<String, MapUdf>>>,
}

impl UdfRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn register_filter(
        &self,
        name: impl Into<String>,
        f: impl Fn(&DataRecord) -> bool + Send + Sync + 'static,
    ) {
        self.filters.write().insert(name.into(), Arc::new(f));
    }

    pub fn register_map(
        &self,
        name: impl Into<String>,
        f: impl Fn(&DataRecord) -> DataRecord + Send + Sync + 'static,
    ) {
        self.maps.write().insert(name.into(), Arc::new(f));
    }

    pub fn filter(&self, name: &str) -> PzResult<FilterUdf> {
        self.filters
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PzError::UnknownUdf(name.to_string()))
    }

    pub fn map(&self, name: &str) -> PzResult<MapUdf> {
        self.maps
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PzError::UnknownUdf(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_source_yields_records() {
        let src = MemorySource::new(
            "m",
            Schema::text_file(),
            vec![
                ("a.txt".into(), "alpha".into()),
                ("b.txt".into(), "beta".into()),
            ],
        );
        let recs = src.records(10).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, 10);
        assert_eq!(recs[1].id, 11);
        assert_eq!(recs[0].get("filename").unwrap().as_text(), Some("a.txt"));
        assert_eq!(recs[1].get("contents").unwrap().as_text(), Some("beta"));
        assert_eq!(src.cardinality_hint(), Some(2));
    }

    #[test]
    fn from_texts_synthesizes_filenames() {
        let src = MemorySource::from_texts("m", Schema::text_file(), vec!["x".into()]);
        let recs = src.records(0).unwrap();
        assert_eq!(
            recs[0].get("filename").unwrap().as_text(),
            Some("item-0000.txt")
        );
    }

    #[test]
    fn pdf_envelope_stripped() {
        let src = MemorySource::new(
            "m",
            Schema::pdf_file(),
            vec![("doc.pdf".into(), wrap_pdf("inner text"))],
        );
        let recs = src.records(0).unwrap();
        assert_eq!(
            recs[0].get("contents").unwrap().as_text(),
            Some("inner text")
        );
    }

    #[test]
    fn pdf_without_envelope_passes_through() {
        let src = MemorySource::new(
            "m",
            Schema::pdf_file(),
            vec![("doc.pdf".into(), "already text".into())],
        );
        let recs = src.records(0).unwrap();
        assert_eq!(
            recs[0].get("contents").unwrap().as_text(),
            Some("already text")
        );
    }

    /// Where a record's `contents` bytes live.
    fn contents_ptr(r: &DataRecord) -> *const u8 {
        r.get("contents").unwrap().as_text().unwrap().as_ptr()
    }

    #[test]
    fn memory_source_scans_share_each_document() {
        let src = MemorySource::new(
            "m",
            Schema::pdf_file(),
            vec![
                ("a.pdf".into(), wrap_pdf("alpha")),
                ("b.txt".into(), "beta".into()),
            ],
        );
        let first = src.records(0).unwrap();
        let second = src.records(100).unwrap();
        let batched: Vec<DataRecord> = collect_batches(&src, 0, 1).concat();
        for ((a, b), c) in first.iter().zip(&second).zip(&batched) {
            assert_eq!(contents_ptr(a), contents_ptr(b));
            assert_eq!(contents_ptr(a), contents_ptr(c));
            assert_eq!(contents_ptr(a), contents_ptr(&a.clone()));
        }
    }

    #[test]
    fn versioned_source_shares_text_across_an_unrelated_append() {
        let src = VersionedSource::new(
            "v",
            Schema::pdf_file(),
            vec![
                ("a.pdf".into(), wrap_pdf("alpha")),
                ("b.txt".into(), "beta".into()),
            ],
        );
        let before = src.records(0).unwrap();
        src.append("c.txt", "gamma");
        let after = src.records(0).unwrap();
        assert_eq!(after.len(), 3);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(contents_ptr(a), contents_ptr(b));
        }
        // An update re-parses only its own document, envelope included.
        src.update("a.pdf", wrap_pdf("omega"));
        let updated = src.records(0).unwrap();
        assert_eq!(updated[0].get("contents").unwrap().as_text(), Some("omega"));
        assert_eq!(contents_ptr(&before[1]), contents_ptr(&updated[1]));
    }

    #[test]
    fn directory_source_reads_files_sorted() {
        let dir = std::env::temp_dir().join(format!("pz-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.txt"), "bee").unwrap();
        std::fs::write(dir.join("a.txt"), "ay").unwrap();
        let src = DirectorySource::new("d", Schema::text_file(), &dir);
        let recs = src.records(0).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].get("filename").unwrap().as_text(), Some("a.txt"));
        assert_eq!(recs[1].get("contents").unwrap().as_text(), Some("bee"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_source_missing_dir_errors() {
        let src = DirectorySource::new("d", Schema::text_file(), "/nonexistent/pz/path");
        assert!(matches!(src.records(0), Err(PzError::Execution(_))));
    }

    #[test]
    fn registry_register_get() {
        let reg = DataRegistry::new();
        reg.register(Arc::new(MemorySource::from_texts(
            "demo",
            Schema::text_file(),
            vec!["x".into()],
        )));
        assert!(reg.contains("demo"));
        assert_eq!(reg.get("demo").unwrap().name(), "demo");
        assert!(matches!(reg.get("nope"), Err(PzError::UnknownDataset(_))));
        assert_eq!(reg.names(), vec!["demo".to_string()]);
    }

    #[test]
    fn registry_clones_share() {
        let reg = DataRegistry::new();
        let reg2 = reg.clone();
        reg.register(Arc::new(MemorySource::from_texts(
            "a",
            Schema::text_file(),
            vec![],
        )));
        assert!(reg2.contains("a"));
    }

    fn collect_batches(src: &dyn DataSource, base: u64, chunk: usize) -> Vec<Vec<DataRecord>> {
        src.batches(base, chunk)
            .unwrap()
            .map(|b| b.unwrap())
            .collect()
    }

    #[test]
    fn default_batches_concatenate_to_records() {
        let src = MemorySource::from_texts(
            "m",
            Schema::text_file(),
            (0..10).map(|i| format!("text {i}")).collect(),
        );
        let whole = src.records(100).unwrap();
        for chunk in [0usize, 1, 3, 10, 99] {
            let batches = collect_batches(&src, 100, chunk);
            let flat: Vec<DataRecord> = batches.iter().flatten().cloned().collect();
            assert_eq!(flat, whole, "chunk {chunk}");
            if chunk > 0 {
                assert!(
                    batches.iter().all(|b| b.len() <= chunk),
                    "chunk {chunk} produced an oversized batch"
                );
            }
        }
    }

    #[test]
    fn generated_source_batches_match_records() {
        let src = GeneratedSource::new("g", Schema::text_file(), 25, |i| {
            (format!("gen-{i:04}.txt"), format!("generated body {i}"))
        });
        assert_eq!(src.cardinality_hint(), Some(25));
        let whole = src.records(7).unwrap();
        assert_eq!(whole.len(), 25);
        assert_eq!(whole[0].id, 7);
        assert_eq!(
            whole[24].get("contents").unwrap().as_text(),
            Some("generated body 24")
        );
        for chunk in [0usize, 1, 4, 25, 1000] {
            let flat: Vec<DataRecord> = collect_batches(&src, 7, chunk).concat();
            assert_eq!(flat, whole, "chunk {chunk}");
        }
    }

    #[test]
    fn generated_source_empty_and_pdf_paths() {
        let empty = GeneratedSource::new("e", Schema::text_file(), 0, |_| unreachable!());
        assert!(empty.records(0).unwrap().is_empty());
        let flat: Vec<DataRecord> = collect_batches(&empty, 0, 4).concat();
        assert!(flat.is_empty());
        let pdf = GeneratedSource::new("p", Schema::pdf_file(), 1, |i| {
            (format!("doc-{i}.pdf"), wrap_pdf("inner"))
        });
        let recs = pdf.records(0).unwrap();
        assert_eq!(recs[0].get("contents").unwrap().as_text(), Some("inner"));
    }

    #[test]
    fn chunk_records_boundaries() {
        let recs: Vec<DataRecord> = (0..5).map(DataRecord::new).collect();
        let batches: Vec<Vec<DataRecord>> =
            chunk_records(recs.clone(), 2).map(|b| b.unwrap()).collect();
        assert_eq!(
            batches.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        let whole: Vec<Vec<DataRecord>> = chunk_records(recs, 0).map(|b| b.unwrap()).collect();
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].len(), 5);
    }

    #[test]
    fn udf_registry() {
        let udfs = UdfRegistry::new();
        udfs.register_filter("nonempty", |r: &DataRecord| {
            r.get("contents")
                .and_then(|v| v.as_text())
                .is_some_and(|t| !t.is_empty())
        });
        udfs.register_map("upper", |r: &DataRecord| {
            let mut out = r.clone();
            if let Some(t) = r.get("contents").and_then(|v| v.as_text()) {
                out.set("contents", t.to_uppercase());
            }
            out
        });
        let f = udfs.filter("nonempty").unwrap();
        let rec = DataRecord::new(0).with_field("contents", "x");
        assert!(f(&rec));
        let m = udfs.map("upper").unwrap();
        assert_eq!(m(&rec).get("contents").unwrap().as_text(), Some("X"));
        assert!(matches!(udfs.filter("nope"), Err(PzError::UnknownUdf(_))));
        assert!(matches!(udfs.map("nope"), Err(PzError::UnknownUdf(_))));
    }
}
