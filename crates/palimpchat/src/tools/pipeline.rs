//! Pipeline-building tools: `add_filter`, `add_convert`, `set_policy`,
//! `execute_pipeline`, `reset_pipeline`.

use crate::codegen::pipeline_code;
use crate::session::SessionHandle;
use archytas::tool::{ArgKind, ArgSpec, FnTool, Tool, ToolArgs, ToolOutput, ToolSpec};
use archytas::ArchytasError;
use pz_core::prelude::*;
use serde_json::json;
use std::sync::Arc;

fn tool_err(tool: &str, e: impl std::fmt::Display) -> ArchytasError {
    ArchytasError::ToolFailed {
        tool: tool.into(),
        reason: e.to_string(),
    }
}

/// `add_filter`: append a natural-language filter to the pipeline.
pub fn add_filter_tool(session: SessionHandle) -> Arc<dyn Tool> {
    let spec = ToolSpec::new(
        "add_filter",
        "Add a filter step to the pipeline that keeps only the records \
         satisfying a natural language condition. Use when the user is \
         interested in a subset of the data, wants to keep only certain \
         records, or describes a topic the records must be about.",
    )
    .with_arg(ArgSpec::new(
        "predicate",
        ArgKind::Str,
        "The natural language condition",
    ))
    .with_example("keep only the papers about colorectal cancer")
    .with_example("filter for emails discussing the merger");
    Arc::new(FnTool::new(spec, move |args: &ToolArgs| {
        let predicate = args["predicate"].as_str().unwrap_or_default().to_string();
        if predicate.trim().is_empty() {
            return Err(tool_err("add_filter", "empty predicate"));
        }
        let mut state = session.lock();
        state.pending_ops.push(LogicalOp::Filter {
            predicate: FilterPredicate::NaturalLanguage(predicate.clone()),
        });
        state
            .notebook
            .push_code(format!("dataset = dataset.filter(\"{predicate}\")"));
        Ok(ToolOutput::text(format!("Added filter: \"{predicate}\"."))
            .with_data(json!({ "predicate": predicate })))
    }))
}

/// `add_convert`: append a schema conversion using a previously created
/// schema.
pub fn add_convert_tool(session: SessionHandle) -> Arc<dyn Tool> {
    let spec = ToolSpec::new(
        "add_convert",
        "Add a convert step that transforms records into a previously \
         created extraction schema, computing the missing fields with an \
         LLM. Use after create_schema when the user wants to extract \
         structured fields from the records. Cardinality 'many' means one \
         record can yield several extracted objects.",
    )
    .with_arg(ArgSpec::new(
        "schema_name",
        ArgKind::Str,
        "Schema created earlier",
    ))
    .with_arg(
        ArgSpec::new(
            "cardinality",
            ArgKind::Str,
            "'one' or 'many' outputs per record",
        )
        .optional(),
    )
    .with_example("apply the extraction schema to the filtered papers");
    Arc::new(FnTool::new(spec, move |args: &ToolArgs| {
        let name = args["schema_name"].as_str().unwrap_or_default().to_string();
        let mut state = session.lock();
        let schema = state.schemas.get(&name).cloned().ok_or_else(|| {
            tool_err(
                "add_convert",
                format!("unknown schema '{name}' — call create_schema first"),
            )
        })?;
        let cardinality = match args.get("cardinality").and_then(|v| v.as_str()) {
            Some("one") => Cardinality::OneToOne,
            _ => Cardinality::OneToMany,
        };
        let description = schema.description.clone();
        state.pending_ops.push(LogicalOp::Convert {
            target: schema,
            cardinality,
            description,
        });
        let card = if cardinality == Cardinality::OneToMany {
            "ONE_TO_MANY"
        } else {
            "ONE_TO_ONE"
        };
        state.notebook.push_code(format!(
            "dataset = dataset.convert({name}, cardinality=pz.Cardinality.{card})"
        ));
        Ok(ToolOutput::text(format!(
            "Added convert to schema '{name}' (cardinality {card})."
        ))
        .with_data(json!({ "schema": name, "cardinality": card })))
    }))
}

/// `add_retrieve`: semantic top-k narrowing before expensive operators.
pub fn add_retrieve_tool(session: SessionHandle) -> Arc<dyn Tool> {
    let spec = ToolSpec::new(
        "add_retrieve",
        "Add a retrieval step that keeps only the k records most similar to          a natural language query, using vector search. Use when the user          asks for the top results, the most relevant or most similar          records, before running expensive filters.",
    )
    .with_arg(ArgSpec::new("query", ArgKind::Str, "What to search for"))
    .with_arg(ArgSpec::new("k", ArgKind::Int, "How many records to keep").optional())
    .with_example("find the 5 most relevant papers about gene therapy");
    Arc::new(FnTool::new(spec, move |args: &ToolArgs| {
        let query = args["query"].as_str().unwrap_or_default().to_string();
        if query.trim().is_empty() {
            return Err(tool_err("add_retrieve", "empty query"));
        }
        let k = args
            .get("k")
            .and_then(|v| v.as_i64())
            .map(|n| n.clamp(1, 1000) as usize)
            .unwrap_or(5);
        let mut state = session.lock();
        state.pending_ops.push(LogicalOp::Retrieve {
            query: query.clone(),
            k,
        });
        state
            .notebook
            .push_code(format!("dataset = dataset.retrieve(\"{query}\", k={k})"));
        Ok(ToolOutput::text(format!(
            "Added retrieval of the top {k} records for \"{query}\"."
        ))
        .with_data(json!({ "query": query, "k": k })))
    }))
}

/// `add_limit`: keep only the first n records.
pub fn add_limit_tool(session: SessionHandle) -> Arc<dyn Tool> {
    let spec = ToolSpec::new(
        "add_limit",
        "Add a limit step that keeps only the first n records of the          pipeline. Use when the user wants a sample, a preview, or caps the          number of records to process.",
    )
    .with_arg(ArgSpec::new("n", ArgKind::Int, "How many records to keep"))
    .with_example("only process the first 3 papers");
    Arc::new(FnTool::new(spec, move |args: &ToolArgs| {
        let n = args
            .get("n")
            .and_then(|v| v.as_i64())
            .filter(|n| *n > 0)
            .ok_or_else(|| tool_err("add_limit", "limit must be a positive number"))?
            as usize;
        let mut state = session.lock();
        state.pending_ops.push(LogicalOp::Limit { n });
        state
            .notebook
            .push_code(format!("dataset = dataset.limit({n})"));
        Ok(ToolOutput::text(format!("Added a limit of {n} record(s)."))
            .with_data(json!({ "n": n })))
    }))
}

/// `add_classify`: semantic categorization into a fixed label set.
pub fn add_classify_tool(session: SessionHandle) -> Arc<dyn Tool> {
    let spec = ToolSpec::new(
        "add_classify",
        "Add a classification step that assigns each record one label from \
         a fixed set, written into a new field. Nothing is dropped. Use \
         when the user wants to categorize, label, tag or bucket the \
         records into named groups.",
    )
    .with_arg(ArgSpec::new(
        "labels",
        ArgKind::StrList,
        "The candidate labels",
    ))
    .with_arg(ArgSpec::new("output_field", ArgKind::Str, "Field to store the label in").optional())
    .with_example("categorize the emails into merger business and office chatter");
    Arc::new(FnTool::new(spec, move |args: &ToolArgs| {
        let labels: Vec<String> = args["labels"]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default();
        if labels.len() < 2 {
            return Err(tool_err("add_classify", "need at least two labels"));
        }
        let output_field = args
            .get("output_field")
            .and_then(|v| v.as_str())
            .unwrap_or("category")
            .to_string();
        let mut state = session.lock();
        state.pending_ops.push(LogicalOp::Classify {
            labels: labels.clone(),
            output_field: output_field.clone(),
        });
        state.notebook.push_code(format!(
            "dataset = dataset.sem_classify({labels:?}, output=\"{output_field}\")"
        ));
        Ok(ToolOutput::text(format!(
            "Added classification into [{}] stored in '{output_field}'.",
            labels.join(", ")
        ))
        .with_data(json!({ "labels": labels, "output_field": output_field })))
    }))
}

/// `set_policy`: choose the optimization goal before execution.
pub fn set_policy_tool(session: SessionHandle) -> Arc<dyn Tool> {
    let spec = ToolSpec::new(
        "set_policy",
        "Set the optimization goal used when the pipeline runs: 'max_quality' \
         for the best output quality, 'min_cost' for the cheapest execution, \
         'min_time' for the fastest. An optional budget turns it into a \
         constrained policy (max quality under a cost or time budget).",
    )
    .with_arg(ArgSpec::new(
        "policy",
        ArgKind::Str,
        "max_quality | min_cost | min_time",
    ))
    .with_arg(ArgSpec::new("cost_budget", ArgKind::Float, "Max dollars to spend").optional())
    .with_arg(ArgSpec::new("time_budget", ArgKind::Float, "Max seconds to run").optional())
    .with_example("optimize for maximum quality")
    .with_example("minimize the cost no matter the quality");
    Arc::new(FnTool::new(spec, move |args: &ToolArgs| {
        let p = args["policy"]
            .as_str()
            .unwrap_or_default()
            .to_ascii_lowercase();
        let cost_budget = args.get("cost_budget").and_then(|v| v.as_f64());
        let time_budget = args.get("time_budget").and_then(|v| v.as_f64());
        let policy = match (p.as_str(), cost_budget, time_budget) {
            (s, Some(b), _) if s.contains("quality") => Policy::MaxQualityAtCost(b),
            (s, _, Some(b)) if s.contains("quality") => Policy::MaxQualityAtTime(b),
            (s, _, _) if s.contains("quality") => Policy::MaxQuality,
            (s, _, _) if s.contains("cost") => Policy::MinCost,
            (s, _, _) if s.contains("time") || s.contains("runtime") || s.contains("fast") => {
                Policy::MinTime
            }
            _ => {
                return Err(tool_err(
                    "set_policy",
                    format!("unknown policy '{p}'; expected max_quality, min_cost or min_time"),
                ))
            }
        };
        let mut state = session.lock();
        let name = policy.name();
        state.policy = policy;
        Ok(
            ToolOutput::text(format!("Optimization policy set to {name}."))
                .with_data(json!({ "policy": name })),
        )
    }))
}

/// `execute_pipeline`: optimize and run the pipeline built so far.
pub fn execute_pipeline_tool(session: SessionHandle) -> Arc<dyn Tool> {
    let spec = ToolSpec::new(
        "execute_pipeline",
        "Optimize and run the pipeline that has been built so far. \
         Palimpzest enumerates the physical plans, picks the best one under \
         the current optimization policy, executes it and reports the output \
         count, runtime and cost. Use when the user asks to run, execute or \
         process the workload.",
    )
    .with_arg(
        ArgSpec::new(
            "parallelism",
            ArgKind::Int,
            "Intra-operator parallelism for this run",
        )
        .optional(),
    )
    .with_example("run the pipeline now");
    Arc::new(FnTool::new(spec, move |args: &ToolArgs| {
        let mut state = session.lock();
        let plan = state
            .current_plan()
            .map_err(|e| tool_err("execute_pipeline", e))?;
        let policy = state.policy.clone();
        // The session's execution defaults (`:parallelism`) drive the run;
        // the `parallelism` argument overrides them for this call. The session's response cache serves every prompt an
        // earlier run already paid for, so a re-run after an edit bills
        // only the records the edit touched.
        let mut config = state.exec;
        if let Some(n) = args.get("parallelism").and_then(|v| v.as_i64()) {
            config = config.with_parallelism(n.clamp(1, 64) as usize);
        }
        let outcome = execute(&state.ctx, &plan, &policy, config)
            .map_err(|e| tool_err("execute_pipeline", e))?;
        let mut summary = format!(
            "Executed plan [{}] under {}: {} output record(s), {:.1}s runtime (virtual; {:.1}s pipelined), ${:.4} cost, {} LLM call(s).",
            outcome.chosen_plan.describe(),
            policy.name(),
            outcome.records.len(),
            outcome.stats.total_time_secs,
            outcome.stats.pipelined_secs,
            outcome.stats.total_cost_usd,
            outcome.stats.total_llm_calls,
        );
        for d in &outcome.stats.degraded {
            summary.push_str(&format!(
                " NOTE: {} failed over {} -> {} ({}, {} record(s), est. quality {:+.2}).",
                d.operator,
                d.from_model,
                d.to_model,
                d.reason,
                d.records_affected,
                d.est_quality_delta,
            ));
        }
        for r in &outcome.stats.adaptive {
            summary.push_str(&format!(
                " NOTE: adaptive replan swapped {} from {} to {} ({}: {:.2} >= {:.2}, {} record(s) remaining).",
                r.operator,
                r.from_model,
                r.to_model,
                r.trigger,
                r.observed_ratio,
                r.threshold,
                r.records_remaining,
            ));
        }
        if outcome.stats.memo_hits > 0 {
            summary.push_str(&format!(
                " NOTE: {} response(s) served from the session cache; only the calls it missed were billed.",
                outcome.stats.memo_hits,
            ));
        }
        if outcome.stats.deadline_exceeded {
            summary.push_str(" NOTE: the execution deadline elapsed — results are partial.");
        }
        state.notebook.push_code(pipeline_code(&plan, &policy));
        state.notebook.push_output(outcome.stats.render_table());
        // With the profiler armed (REPL `:profile on`), attach the
        // per-stage attribution table and the estimate-vs-observed drift
        // to the notebook so the exported artifact carries them.
        let mut profiled = false;
        if state.ctx.tracer.profiling_enabled() {
            if let Some(profile) = pz_obs::profile_plan(&state.ctx.tracer.snapshot()) {
                profiled = true;
                state.notebook.push_output(profile.render());
            }
            if let Some(drift) = outcome.drift_report() {
                state.notebook.push_output(drift.render_table());
            }
        }
        let data = json!({
            "records": outcome.records.len(),
            "cost_usd": outcome.stats.total_cost_usd,
            "time_secs": outcome.stats.total_time_secs,
            "pipelined_secs": outcome.stats.pipelined_secs,
            "plan": outcome.chosen_plan.describe(),
            "degraded": outcome.stats.degraded.len(),
            "replanned": outcome.stats.adaptive.len(),
            "cache_hits": outcome.stats.memo_hits,
            "deadline_exceeded": outcome.stats.deadline_exceeded,
            "profiled": profiled,
        });
        state.last_outcome = Some(outcome);
        Ok(ToolOutput::text(summary).with_data(data))
    }))
}

/// `reset_pipeline`: discard the pipeline under construction.
pub fn reset_pipeline_tool(session: SessionHandle) -> Arc<dyn Tool> {
    let spec = ToolSpec::new(
        "reset_pipeline",
        "Discard the pipeline steps built so far and start over (keeps the \
         registered dataset and the created schemas). Use when the user \
         wants to start again, clear the pipeline, or undo the steps.",
    )
    .with_example("start over with a clean pipeline");
    Arc::new(FnTool::new(spec, move |_args: &ToolArgs| {
        let mut state = session.lock();
        state.reset_pipeline();
        Ok(ToolOutput::text(
            "Pipeline cleared; dataset and schemas kept.",
        ))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::new_session;
    use crate::tools::{create_schema_tool, register_dataset_tool};

    fn args(v: serde_json::Value) -> ToolArgs {
        v.as_object().unwrap().clone()
    }

    fn prepared_session() -> SessionHandle {
        let session = new_session();
        register_dataset_tool(session.clone())
            .invoke(&args(json!({"source": "scientific"})))
            .unwrap();
        create_schema_tool(session.clone())
            .invoke(&args(json!({
                "schema_name": "ClinicalData",
                "schema_description": "Datasets used in papers",
                "field_names": ["name", "description", "url"],
                "field_descriptions": [
                    "The name of the clinical data dataset",
                    "A short description of the content of the dataset",
                    "The public URL where the dataset can be accessed"
                ]
            })))
            .unwrap();
        session
    }

    #[test]
    fn filter_then_convert_builds_plan() {
        let session = prepared_session();
        add_filter_tool(session.clone())
            .invoke(&args(
                json!({"predicate": "The papers are about colorectal cancer"}),
            ))
            .unwrap();
        add_convert_tool(session.clone())
            .invoke(&args(
                json!({"schema_name": "ClinicalData", "cardinality": "many"}),
            ))
            .unwrap();
        let state = session.lock();
        let plan = state.current_plan().unwrap();
        assert_eq!(plan.ops.len(), 3);
        assert_eq!(plan.semantic_op_count(), 2);
    }

    #[test]
    fn convert_requires_known_schema() {
        let session = prepared_session();
        let err = add_convert_tool(session)
            .invoke(&args(json!({"schema_name": "Ghost"})))
            .unwrap_err();
        assert!(err.to_string().contains("create_schema first"));
    }

    #[test]
    fn empty_predicate_rejected() {
        let session = prepared_session();
        assert!(add_filter_tool(session)
            .invoke(&args(json!({"predicate": "  "})))
            .is_err());
    }

    #[test]
    fn policy_variants() {
        let session = new_session();
        let tool = set_policy_tool(session.clone());
        tool.invoke(&args(json!({"policy": "min_cost"}))).unwrap();
        assert_eq!(session.lock().policy, Policy::MinCost);
        tool.invoke(&args(json!({"policy": "minimum runtime"})))
            .unwrap();
        assert_eq!(session.lock().policy, Policy::MinTime);
        tool.invoke(&args(json!({"policy": "max_quality", "cost_budget": 0.5})))
            .unwrap();
        assert_eq!(session.lock().policy, Policy::MaxQualityAtCost(0.5));
        assert!(tool.invoke(&args(json!({"policy": "fluffy"}))).is_err());
    }

    #[test]
    fn execute_end_to_end() {
        let session = prepared_session();
        add_filter_tool(session.clone())
            .invoke(&args(
                json!({"predicate": "The papers are about colorectal cancer"}),
            ))
            .unwrap();
        add_convert_tool(session.clone())
            .invoke(&args(json!({"schema_name": "ClinicalData"})))
            .unwrap();
        let out = execute_pipeline_tool(session.clone())
            .invoke(&args(json!({})))
            .unwrap();
        assert!(out.text.contains("output record(s)"), "{}", out.text);
        assert!(out.data["cost_usd"].as_f64().unwrap() > 0.0);
        let state = session.lock();
        let outcome = state.last_outcome.as_ref().unwrap();
        assert!(!outcome.records.is_empty());
        // Both time figures of the run: the sequential sum and the
        // pipelined one.
        let stats = &outcome.stats;
        assert_eq!(out.data["time_secs"].as_f64(), Some(stats.total_time_secs));
        assert_eq!(
            out.data["pipelined_secs"].as_f64(),
            Some(stats.pipelined_secs)
        );
        assert!(stats.pipelined_secs < stats.total_time_secs);
        let pipelined = format!("{:.1}s pipelined", stats.pipelined_secs);
        assert!(out.text.contains(&pipelined), "{}", out.text);
        // The notebook got the Figure 6 code and the Figure 5 output.
        assert!(state
            .notebook
            .code()
            .contains("Execute(output, policy=policy)"));
    }

    #[test]
    fn execute_without_dataset_errors() {
        let session = new_session();
        assert!(execute_pipeline_tool(session)
            .invoke(&args(json!({})))
            .is_err());
    }

    #[test]
    fn reset_clears_pipeline() {
        let session = prepared_session();
        add_filter_tool(session.clone())
            .invoke(&args(json!({"predicate": "anything"})))
            .unwrap();
        reset_pipeline_tool(session.clone())
            .invoke(&args(json!({})))
            .unwrap();
        let state = session.lock();
        assert!(state.pending_ops.is_empty());
        // Reset keeps the dataset and any created schemas.
        assert_eq!(state.dataset.as_deref(), Some("scientific-demo"));
    }
}
