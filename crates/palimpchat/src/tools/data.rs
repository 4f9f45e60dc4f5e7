//! Dataset tools: `register_dataset` (Figure 3) and `show_records`.

use crate::session::SessionHandle;
use archytas::tool::{ArgKind, ArgSpec, FnTool, Tool, ToolArgs, ToolOutput, ToolSpec};
use archytas::ArchytasError;
use pz_core::datasource::DataSource;
use pz_core::prelude::*;
use serde_json::json;
use std::sync::{Arc, OnceLock};

fn tool_err(tool: &str, e: impl std::fmt::Display) -> ArchytasError {
    ArchytasError::ToolFailed {
        tool: tool.into(),
        reason: e.to_string(),
    }
}

/// A built-in demo corpus as a source, generated and parsed once per
/// process (on its first load) and shared by every session after that.
fn demo_source(
    cell: &'static OnceLock<MemorySource>,
    name: &str,
    schema: fn() -> Schema,
    docs: fn() -> Vec<pz_datagen::Document>,
) -> &'static MemorySource {
    cell.get_or_init(|| {
        let items = docs()
            .into_iter()
            .map(|d| (d.filename, d.content))
            .collect();
        MemorySource::new(name, schema(), items)
    })
}

/// `register_dataset`: load one of the built-in demo corpora, or a local
/// folder, as the session's input dataset. A demo load runs no generator
/// and copies no document: it registers a [`MemorySource::renamed`] view of
/// the process-wide parsed corpus, so every session shares one copy of its
/// text. A folder is read from disk on every load.
pub fn register_dataset_tool(session: SessionHandle) -> Arc<dyn Tool> {
    static SCIENCE: OnceLock<MemorySource> = OnceLock::new();
    static LEGAL: OnceLock<MemorySource> = OnceLock::new();
    static REALESTATE: OnceLock<MemorySource> = OnceLock::new();
    let spec = ToolSpec::new(
        "register_dataset",
        "Register an input dataset so a pipeline can process it. Use this \
         when the user wants to load, upload, or register data: a folder of \
         PDF papers, emails, real estate listings, or a local directory \
         path. Built-in sources: 'scientific-demo' (11 PDF papers about \
         cancer research), 'legal-demo' (discovery emails), \
         'realestate-demo' (housing listings). A 'dir:<path>' source loads \
         every file in a local folder.",
    )
    .with_arg(ArgSpec::new("source", ArgKind::Str, "Which corpus to load"))
    .with_arg(ArgSpec::new("name", ArgKind::Str, "Registry name for the dataset").optional())
    .with_example("load the dataset of scientific papers from my folder")
    .with_example("upload the collection of PDF papers");
    Arc::new(FnTool::new(spec, move |args: &ToolArgs| {
        let source = args["source"].as_str().unwrap_or_default().to_string();
        let mut state = session.lock();
        let demo = match source.as_str() {
            s if s.contains("legal") || s.contains("email") => {
                demo_source(&LEGAL, "legal-demo", Schema::text_file, || {
                    pz_datagen::legal::demo_corpus().0
                })
            }
            s if s.contains("real") || s.contains("estate") || s.contains("listing") => {
                demo_source(&REALESTATE, "realestate-demo", Schema::text_file, || {
                    pz_datagen::realestate::demo_corpus().0
                })
            }
            s if s.starts_with("dir:") => {
                let dir = s.trim_start_matches("dir:").to_string();
                let name = args
                    .get("name")
                    .and_then(|v| v.as_str())
                    .unwrap_or("local-dir")
                    .to_string();
                // A folder that cannot be listed fails here and replaces
                // nothing; its files are read when a run scans them.
                let folder = DirectorySource::new(name.clone(), Schema::pdf_file(), &dir);
                let n = folder
                    .file_count()
                    .map_err(|e| tool_err("register_dataset", e))?;
                state.ctx.registry.register(Arc::new(folder));
                state.dataset = Some(name.clone());
                state.notebook.push_code(format!(
                    "dataset = pz.Dataset(source=\"{name}\", schema=PDFFile)"
                ));
                return Ok(ToolOutput::text(format!(
                    "Registered dataset '{name}' from {dir} with {n} files (PDFFile schema)."
                ))
                .with_data(json!({ "name": name, "records": n })));
            }
            // Default: the scientific discovery corpus of §3.
            _ => demo_source(&SCIENCE, "scientific-demo", Schema::pdf_file, || {
                pz_datagen::science::demo_corpus().0
            }),
        };
        let name = args
            .get("name")
            .and_then(|v| v.as_str())
            .unwrap_or(demo.name())
            .to_string();
        let n = demo.cardinality_hint().unwrap_or(0);
        let schema_name = demo.schema().name;
        state
            .ctx
            .registry
            .register(Arc::new(demo.renamed(name.clone())));
        state.dataset = Some(name.clone());
        state.reset_pipeline();
        state.notebook.push_code(format!(
            "dataset = pz.Dataset(source=\"{name}\", schema={schema_name})"
        ));
        Ok(ToolOutput::text(format!(
            "Registered dataset '{name}' with {n} records ({schema_name} schema). \
             The native {schema_name} schema was chosen automatically from the file extensions."
        ))
        .with_data(json!({ "name": name, "records": n, "schema": schema_name })))
    }))
}

/// `show_records`: display the output of the last execution.
pub fn show_records_tool(session: SessionHandle) -> Arc<dyn Tool> {
    let spec = ToolSpec::new(
        "show_records",
        "Show the output records of the most recent pipeline execution. Use \
         when the user asks to see, list, display or visualize the results, \
         records, outputs, or extracted items.",
    )
    .with_arg(ArgSpec::new("limit", ArgKind::Int, "Maximum records to show").optional())
    .with_example("show me the extracted results");
    Arc::new(FnTool::new(spec, move |args: &ToolArgs| {
        let state = session.lock();
        let outcome = state
            .last_outcome
            .as_ref()
            .ok_or_else(|| tool_err("show_records", "no pipeline has been executed yet"))?;
        let limit = args
            .get("limit")
            .and_then(|v| v.as_i64())
            .map(|n| n.max(0) as usize)
            .unwrap_or(20);
        let shown: Vec<serde_json::Value> = outcome
            .records
            .iter()
            .take(limit)
            .map(|r| r.to_json())
            .collect();
        let mut text = format!(
            "{} output record(s){}:\n",
            outcome.records.len(),
            if outcome.records.len() > limit {
                format!(" (showing {limit})")
            } else {
                String::new()
            }
        );
        for r in &shown {
            text.push_str(&serde_json::to_string(r).unwrap_or_default());
            text.push('\n');
        }
        Ok(ToolOutput::text(text).with_data(json!(shown)))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::new_session;

    fn args(v: serde_json::Value) -> ToolArgs {
        v.as_object().unwrap().clone()
    }

    #[test]
    fn registers_scientific_demo() {
        let session = new_session();
        let tool = register_dataset_tool(session.clone());
        let out = tool
            .invoke(&args(json!({"source": "scientific papers"})))
            .unwrap();
        assert!(out.text.contains("11 records"));
        assert!(out.text.contains("PDFFile"));
        let state = session.lock();
        assert_eq!(state.dataset.as_deref(), Some("scientific-demo"));
        assert!(state.ctx.registry.contains("scientific-demo"));
        assert_eq!(state.notebook.len(), 1);
    }

    /// The shared `Arc<str>` behind a record's `contents`.
    fn contents(r: &DataRecord) -> Arc<str> {
        match r.get("contents") {
            Some(Value::Text(t)) => Arc::clone(t),
            other => panic!("contents is not text: {other:?}"),
        }
    }

    #[test]
    fn sessions_share_one_parsed_demo_corpus() {
        let scan = |name: &str| {
            let session = new_session();
            register_dataset_tool(session.clone())
                .invoke(&args(json!({"source": "scientific papers", "name": name})))
                .unwrap();
            let src = session.lock().ctx.registry.get(name).unwrap();
            src.records(0).unwrap()
        };
        let (a, b) = (scan("scientific-demo"), scan("scientific-demo"));
        let renamed = scan("sigmod-demo");
        assert_eq!(a.len(), 11);
        for ((a, b), c) in a.iter().zip(&b).zip(&renamed) {
            assert!(Arc::ptr_eq(&contents(a), &contents(b)));
            assert!(Arc::ptr_eq(&contents(a), &contents(c)));
        }
    }

    #[test]
    fn each_shared_demo_corpus_equals_a_fresh_parse() {
        let corpora = [
            (
                "scientific papers",
                Schema::pdf_file(),
                pz_datagen::science::demo_corpus().0,
            ),
            (
                "legal emails",
                Schema::text_file(),
                pz_datagen::legal::demo_corpus().0,
            ),
            (
                "real estate listings",
                Schema::text_file(),
                pz_datagen::realestate::demo_corpus().0,
            ),
        ];
        for (source, schema, docs) in corpora {
            let session = new_session();
            register_dataset_tool(session.clone())
                .invoke(&args(json!({"source": source})))
                .unwrap();
            let state = session.lock();
            let name = state.dataset.clone().unwrap();
            let shared = state.ctx.registry.get(&name).unwrap();
            let fresh = MemorySource::new(
                "fresh",
                schema,
                docs.into_iter().map(|d| (d.filename, d.content)).collect(),
            );
            assert_eq!(
                shared.records(0).unwrap(),
                fresh.records(0).unwrap(),
                "{source}"
            );
        }
    }

    #[test]
    fn registers_legal_and_realestate() {
        let session = new_session();
        let tool = register_dataset_tool(session.clone());
        tool.invoke(&args(json!({"source": "legal emails"})))
            .unwrap();
        assert_eq!(session.lock().dataset.as_deref(), Some("legal-demo"));
        tool.invoke(&args(json!({"source": "real estate listings"})))
            .unwrap();
        assert_eq!(session.lock().dataset.as_deref(), Some("realestate-demo"));
    }

    #[test]
    fn custom_name_respected() {
        let session = new_session();
        let tool = register_dataset_tool(session.clone());
        tool.invoke(&args(
            json!({"source": "scientific", "name": "sigmod-demo"}),
        ))
        .unwrap();
        assert_eq!(session.lock().dataset.as_deref(), Some("sigmod-demo"));
    }

    #[test]
    fn directory_source_loads_files() {
        let dir = std::env::temp_dir().join(format!("palimp-data-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.txt"), "hello").unwrap();
        let session = new_session();
        let tool = register_dataset_tool(session.clone());
        let out = tool
            .invoke(&args(json!({"source": format!("dir:{}", dir.display())})))
            .unwrap();
        assert!(out.text.contains("1 files"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_source_bad_path_errors() {
        let session = new_session();
        let tool = register_dataset_tool(session);
        assert!(tool
            .invoke(&args(json!({"source": "dir:/does/not/exist"})))
            .is_err());
    }

    #[test]
    fn a_failed_folder_load_keeps_the_dataset_of_that_name() {
        let dir = std::env::temp_dir().join(format!("palimp-data-keep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.txt"), "alpha").unwrap();
        std::fs::write(dir.join("b.txt"), "beta").unwrap();
        let session = new_session();
        let tool = register_dataset_tool(session.clone());
        tool.invoke(&args(json!({"source": format!("dir:{}", dir.display())})))
            .unwrap();
        // Same default name ("local-dir"), a folder that does not exist.
        assert!(tool
            .invoke(&args(json!({"source": "dir:/does/not/exist"})))
            .is_err());
        let run = crate::tools::execute_pipeline_tool(session.clone())
            .invoke(&args(json!({})))
            .unwrap();
        assert_eq!(run.data["records"], 2);
        assert_eq!(session.lock().dataset.as_deref(), Some("local-dir"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn show_records_requires_execution() {
        let session = new_session();
        let tool = show_records_tool(session);
        assert!(tool.invoke(&args(json!({}))).is_err());
    }
}
