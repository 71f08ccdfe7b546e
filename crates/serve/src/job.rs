//! Job identity and execution: from a [`JobSpec`] to a durable result.
//!
//! A job's id *is* its PR 5 config fingerprint (machine + canonical
//! program + state cap + reduction mode) in hex. That one decision buys
//! three properties at once: identical submissions from different
//! clients dedup onto one exploration, the outcome-set cache needs no
//! separate key, and the per-job checkpoint directory automatically
//! refuses to resume under a different configuration (the fingerprint
//! check is already in the checkpoint header).
//!
//! Durable result lines carry no timing and no scheduling counters, so
//! a run that was SIGKILL'd and resumed writes the byte-identical file
//! an uninterrupted run writes.

use std::path::Path;
use std::sync::Arc;

use crate::protocol::JobSpec;
use crate::store::{cleanup_file, Vfs, VfsCkptStore};
use weakord_mc::checkpoint::config_fingerprint;
use weakord_mc::{
    run, with_machine, CancelToken, Checkpoint, CheckpointCfg, CheckpointError, Exploration, Opts,
    ProgressSink, TruncationReason,
};
use weakord_obs::json::escape;
use weakord_progs::{parse_program, Program};

/// Parses the canonical program text and derives the job id.
///
/// Fails only on a tampered journal — wire submissions were already
/// canonicalized by the protocol layer.
pub fn job_identity(spec: &JobSpec, threads: usize) -> Result<(Program, String), String> {
    let prog = parse_program(&spec.program).map_err(|e| format!("program does not parse: {e}"))?;
    let fp = config_fingerprint(&spec.machine, &prog, &spec.limits(threads));
    Ok((prog, format!("{fp:016x}")))
}

/// Executes one attempt of a job: resumes from the job's checkpoint
/// directory when one exists (the daemon was killed mid-job), starts
/// fresh otherwise. A corrupt checkpoint is demoted to a fresh start —
/// crash tolerance must degrade to "recompute", never to "refuse".
///
/// `progress` receives periodic counter snapshots for the status
/// listing and streaming connections. It observes the exploration but
/// cannot perturb it — the result line depends only on spec semantics.
pub fn run_attempt(
    spec: &JobSpec,
    prog: &Program,
    ckpt_dir: &Path,
    ckpt_every: usize,
    threads: usize,
    cancel: &CancelToken,
    progress: &ProgressSink,
    vfs: &Arc<dyn Vfs>,
) -> Result<Exploration, CheckpointError> {
    let limits = spec.limits(threads);
    let cfg = CheckpointCfg {
        dir: ckpt_dir.to_path_buf(),
        every: ckpt_every,
        abort_after: None,
        store: Some(Arc::new(VfsCkptStore::new(vfs.clone()))),
    };
    let opts = |checkpoint| Opts { cancel: Some(cancel), progress: Some(progress), checkpoint };
    with_machine!(spec.machine.as_str(), |m| {
        if vfs.exists(&cfg.file()) {
            match run(&m, prog, limits, &opts(Checkpoint::Resume(&cfg))) {
                Ok(ex) => return Ok(ex),
                // A config/engine mismatch cannot be recomputed away —
                // the id *is* the fingerprint, so this is a real bug or
                // a tampered state dir. Everything else (unreadable,
                // torn, corrupt) demotes to a fresh start.
                Err(
                    e @ (CheckpointError::ConfigMismatch { .. }
                    | CheckpointError::EngineMismatch { .. }),
                ) => return Err(e),
                Err(_) => {
                    cleanup_file(&**vfs, &cfg.file());
                }
            }
        }
        run(&m, prog, limits, &opts(Checkpoint::Fresh(&cfg)))
    }, other => unreachable!("machine `{other}` was validated at admission"))
}

/// Short stable token for a truncation reason, as written into result
/// lines (`"truncated": null` for a complete run).
pub fn truncation_token(t: Option<TruncationReason>) -> &'static str {
    match t {
        None => "null",
        Some(TruncationReason::MaxStates) => "\"max-states\"",
        Some(TruncationReason::Deadline) => "\"deadline\"",
        Some(TruncationReason::WorkerPanic) => "\"worker-panic\"",
        Some(TruncationReason::Resumable) => "\"resumable\"",
        Some(TruncationReason::Cancelled) => "\"cancelled\"",
    }
}

/// Whether a finished exploration may serve future submissions of the
/// same id from the cache. State-cap truncation is part of the
/// fingerprint (same id ⇒ same cap ⇒ same answer), but deadline /
/// cancel / panic truncations depend on resources of *this* run, so a
/// re-submission must recompute.
pub fn cacheable(t: Option<TruncationReason>) -> bool {
    matches!(t, None | Some(TruncationReason::MaxStates))
}

/// The durable result line for a finished exploration. Deterministic
/// by construction: outcomes iterate in `BTreeSet` order and no timing
/// field appears.
pub fn result_line(id: &str, spec: &JobSpec, ex: &Exploration) -> String {
    let mut outcomes = String::new();
    for (i, o) in ex.outcomes.iter().enumerate() {
        if i > 0 {
            outcomes.push(',');
        }
        outcomes.push('"');
        outcomes.push_str(&escape(&o.to_string()));
        outcomes.push('"');
    }
    format!(
        "{{\"id\":\"{id}\",\"ok\":true,\"machine\":\"{}\",\"max_states\":{},\"reduce\":{},\"states\":{},\"deadlocks\":{},\"truncated\":{},\"outcomes\":[{outcomes}]}}",
        escape(&spec.machine),
        spec.max_states,
        spec.reduce,
        ex.states,
        ex.deadlocks,
        truncation_token(ex.truncation),
    )
}

/// The durable line for a job abandoned as a poison pill (it panicked
/// on every attempt up to the cap). Written to the results directory so
/// a restart does not resurrect-and-relivelock the job.
pub fn poisoned_line(id: &str, attempts: u32) -> String {
    format!("{{\"id\":\"{id}\",\"ok\":false,\"kind\":\"poisoned\",\"attempts\":{attempts}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakord_obs::json::{self, Json};
    use weakord_progs::{litmus, unparse_program};

    fn sb_spec() -> JobSpec {
        let lit = litmus::all().into_iter().find(|l| l.name == "mp").unwrap();
        JobSpec {
            machine: "sc".to_string(),
            program: unparse_program(&lit.program),
            max_states: 100_000,
            deadline_ms: None,
            reduce: false,
            test_panics: 0,
            test_sleep_ms: 0,
        }
    }

    #[test]
    fn the_job_id_ignores_resources_but_not_semantics() {
        let spec = sb_spec();
        let (_, id) = job_identity(&spec, 1).unwrap();
        // Thread count and deadline are resources: same id.
        assert_eq!(job_identity(&spec, 4).unwrap().1, id);
        let with_deadline = JobSpec { deadline_ms: Some(5_000), ..spec.clone() };
        assert_eq!(job_identity(&with_deadline, 1).unwrap().1, id);
        // State cap and reduction are semantics: different id.
        let capped = JobSpec { max_states: 7, ..spec.clone() };
        assert_ne!(job_identity(&capped, 1).unwrap().1, id);
        let reduced = JobSpec { reduce: true, ..spec };
        assert_ne!(job_identity(&reduced, 1).unwrap().1, id);
    }

    #[test]
    fn result_lines_are_stable_json_with_sorted_outcomes() {
        let spec = sb_spec();
        let (prog, id) = job_identity(&spec, 1).unwrap();
        let dir = std::env::temp_dir().join(format!("weakord-job-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cancel = CancelToken::new();
        let progress = ProgressSink::new();
        let vfs: Arc<dyn Vfs> = Arc::new(crate::store::RealVfs::new());
        let ex = run_attempt(&spec, &prog, &dir, 10_000, 1, &cancel, &progress, &vfs).unwrap();
        let line = result_line(&id, &spec, &ex);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("truncated"), Some(&Json::Null));
        let outs = v.get("outcomes").and_then(Json::as_arr).unwrap();
        assert_eq!(
            outs.iter().filter_map(Json::as_str).collect::<Vec<_>>(),
            ex.outcomes.iter().map(ToString::to_string).collect::<Vec<_>>(),
            "outcomes must serialize in BTreeSet order (deterministic)"
        );
        // Resume from the final checkpoint reproduces the identical line.
        let resumed = run_attempt(&spec, &prog, &dir, 10_000, 1, &cancel, &progress, &vfs).unwrap();
        assert_eq!(result_line(&id, &spec, &resumed), line);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
