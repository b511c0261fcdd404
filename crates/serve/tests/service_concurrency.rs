//! Concurrency and identity guarantees of the compile service.
//!
//! The acceptance bar for the service layer: responses are
//! byte-identical to the single-shot job layer on the same document,
//! the cache-hit path is byte-identical to the cold path, admission
//! control rejects (typed, not hanging) at the queue cap, and shutdown
//! drains in-flight work cleanly.

use na_pipeline::handle_json;
use na_serve::{compact_json, serve_lines, CompileService, ServeConfig, Submission, SubmitError};

fn config(workers: usize, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_cap,
        cache_budget_bytes: 32 << 20,
        ..ServeConfig::default()
    }
}

/// A v1 job document compiling one circuit on the small mixed preset.
fn job_doc(circuit_name: &str, qasm_body: &str, request_id: Option<&str>) -> String {
    let id = match request_id {
        Some(id) => format!("\"request_id\": \"{id}\",\n"),
        None => String::new(),
    };
    format!(
        "{{\n{id}  \"version\": 1,\n  \
         \"target\": {{\"preset\": \"mixed\", \"lattice_side\": 5, \"num_atoms\": 12}},\n  \
         \"mapping\": {{\"mode\": \"hybrid\", \"alpha\": 1.0}},\n  \
         \"circuits\": [{{\"name\": \"{circuit_name}\", \"qasm\": \"{qasm_body}\"}}]\n}}\n",
    )
}

fn bell_qasm() -> &'static str {
    "OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\ncx q[0],q[1];\\n"
}

fn chain_qasm(extra_h: usize) -> String {
    let mut body = String::from("OPENQASM 2.0;\\nqreg q[3];\\n");
    for _ in 0..extra_h {
        body.push_str("h q[0];\\n");
    }
    body.push_str("cx q[0],q[1];\\ncx q[1],q[2];\\n");
    body
}

/// Blanks the two wall-clock stamps a response embeds
/// (`map_runtime_ms`, `total_runtime_ms`) so byte comparisons test
/// content, not timing.
fn normalize(response: &str) -> String {
    let mut out = response.to_owned();
    for key in [
        "\"map_runtime_ms\":",
        "\"total_runtime_ms\":",
        "\"map_us\":",
        "\"schedule_us\":",
        "\"lower_us\":",
    ] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let end = start + out[start..].find([',', '}']).expect("number terminates");
            out.replace_range(start..end, "0");
            from = start;
        }
    }
    out
}

#[test]
fn identical_and_distinct_requests_across_threads() {
    let service = CompileService::start(config(2, 32));
    let identical_doc = job_doc("bell", bell_qasm(), None);
    let distinct_docs: Vec<String> = (1..=3)
        .map(|i| job_doc(&format!("chain-{i}"), &chain_qasm(i), None))
        .collect();

    let mut handles = Vec::new();
    for _ in 0..4 {
        let service = service.clone();
        let doc = identical_doc.clone();
        handles.push(std::thread::spawn(move || {
            ("identical", service.submit_wait(&doc).expect("accepted"))
        }));
    }
    for doc in &distinct_docs {
        let service = service.clone();
        let doc = doc.clone();
        handles.push(std::thread::spawn(move || {
            ("distinct", service.submit_wait(&doc).expect("accepted"))
        }));
    }
    let mut identical_responses = Vec::new();
    let mut distinct_responses = Vec::new();
    for handle in handles {
        let (kind, response) = handle.join().expect("no panic");
        match kind {
            "identical" => identical_responses.push(response),
            _ => distinct_responses.push(response),
        }
    }
    service.shutdown();

    // (a) Every response to the identical document is byte-identical —
    // whether it was compiled cold, compiled concurrently, or served
    // from the artifact cache. Warm-scratch reuse never changes bytes.
    for response in &identical_responses[1..] {
        assert_eq!(response, &identical_responses[0]);
    }
    // Each response matches the single-shot job layer on the same
    // document, runtime stamps aside.
    let reference = handle_json(&identical_doc).expect("compiles");
    assert_eq!(
        normalize(&identical_responses[0]),
        normalize(&reference),
        "service response diverged from handle_json"
    );
    // Distinct documents produced distinct, successful artifacts.
    assert_eq!(distinct_responses.len(), 3);
    for response in &distinct_responses {
        assert!(response.contains("\"ok\":true"));
    }
}

/// A served document's `"threads"` never fans its circuits out onto
/// threads of their own: the worker compiles them on its warm scratch,
/// so the service's route-cache counters see the distance-field work
/// whatever the field says.
#[test]
fn served_threads_field_compiles_on_the_worker_scratch() {
    // A Toffoli across the 6×6 lattice: gate-only routing queries the
    // distance cache.
    let ccx = "OPENQASM 2.0;\\nqreg q[20];\\nccx q[0],q[10],q[19];\\n";
    let served_misses = |threads: usize| {
        let doc = format!(
            "{{\"version\": 1, \"threads\": {threads}, \
             \"target\": {{\"preset\": \"mixed\", \"lattice_side\": 6, \"num_atoms\": 20}}, \
             \"mapping\": {{\"mode\": \"gate_only\"}}, \
             \"circuits\": [{{\"name\": \"a\", \"qasm\": \"{ccx}\"}}, \
             {{\"name\": \"b\", \"qasm\": \"{ccx}\"}}]}}"
        );
        let service = CompileService::start(config(1, 4));
        let response = service.submit_wait(&doc).expect("accepted");
        assert_eq!(response.matches("\"ok\":true").count(), 2, "{response}");
        let misses = service.metrics().route_cache().misses;
        service.shutdown();
        misses
    };
    let inline = served_misses(1);
    assert!(inline > 0, "the circuits query the distance cache");
    assert_eq!(served_misses(2), inline);
}

#[test]
fn repeated_submission_hits_the_artifact_cache() {
    let service = CompileService::start(config(1, 8));
    let doc = job_doc("bell", bell_qasm(), None);

    let cold = service.submit_wait(&doc).expect("accepted");
    // The second submission must be answered from the cache: same
    // bytes, and the submit path reports it as Cached.
    let warm = match service.submit(&doc).expect("accepted") {
        Submission::Cached(response) => response,
        other => panic!("expected a cache hit, got {other:?}"),
    };
    assert_eq!(cold, warm, "cache-hit bytes diverged from cold compile");

    let metrics = service.metrics_json();
    assert!(
        metrics.contains("\"artifact_cache\":{\"hits\":1,"),
        "expected one artifact-cache hit in {metrics}"
    );
    service.shutdown();
}

#[test]
fn request_ids_are_echoed_without_defeating_the_cache() {
    let service = CompileService::start(config(1, 8));
    let first = service
        .submit_wait(&job_doc("bell", bell_qasm(), Some("client-a")))
        .expect("accepted");
    let second = service
        .submit_wait(&job_doc("bell", bell_qasm(), Some("client-b")))
        .expect("accepted");
    // Different ids, same content: the second submission still hits
    // the cache, and each client gets its own id echoed.
    assert!(first.contains("\"request_id\": \"client-a\""));
    assert!(second.contains("\"request_id\": \"client-b\""));
    assert_eq!(
        service
            .metrics()
            .cache_hits
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // Bytes identical once the echoes are removed.
    assert_eq!(
        first.replace("client-a", ""),
        second.replace("client-b", "")
    );
    service.shutdown();
}

#[test]
fn queue_full_submissions_get_typed_rejection() {
    // No workers: the queue fills deterministically.
    let service = CompileService::start(config(0, 2));
    let pending: Vec<_> = (0..2)
        .map(|i| {
            let doc = job_doc(&format!("chain-{i}"), &chain_qasm(i + 1), None);
            match service.submit(&doc).expect("accepted") {
                Submission::Pending(rx) => rx,
                other => panic!("expected Pending, got {other:?}"),
            }
        })
        .collect();
    assert_eq!(service.queue_depth(), 2);

    let overflow = job_doc("overflow", bell_qasm(), None);
    match service.submit(&overflow) {
        Err(SubmitError::Busy { depth, cap }) => {
            assert_eq!((depth, cap), (2, 2));
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    // Shutdown answers the jobs no worker will ever take with a
    // well-formed shutdown document instead of hanging the clients.
    service.shutdown();
    for rx in pending {
        let doc = rx.recv().expect("answered at shutdown");
        assert!(doc.contains("\"kind\":\"shutdown\""), "got {doc}");
    }
    assert!(matches!(
        service.submit(&overflow),
        Err(SubmitError::ShuttingDown)
    ));
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let service = CompileService::start(config(2, 16));
    let receivers: Vec<_> = (0..6)
        .map(|i| {
            let doc = job_doc(&format!("drain-{i}"), &chain_qasm(i % 3 + 1), None);
            match service.submit(&doc).expect("accepted") {
                Submission::Pending(rx) => Some(rx),
                Submission::Cached(_) => None,
                other => panic!("unexpected {other:?}"),
            }
        })
        .collect();
    // Close immediately: every queued job must still be compiled (the
    // queue drains before workers exit), not error-documented.
    service.shutdown();
    for rx in receivers.into_iter().flatten() {
        let doc = rx.recv().expect("drained");
        assert!(
            doc.contains("\"ok\":true"),
            "job dropped at shutdown: {doc}"
        );
    }
}

#[test]
fn stdio_transport_answers_one_compact_line_per_request() {
    let service = CompileService::start(config(1, 4));
    // One compact document per line: a valid job, a blank line (to be
    // skipped), and a malformed one.
    let input = format!(
        "{}\n\n{}\n",
        compact_json(&job_doc("bell", bell_qasm(), None)),
        "{\"version\": 99}",
    );
    let mut output = Vec::new();
    let answered =
        serve_lines(&service, input.as_bytes(), &mut output).expect("stdio transport runs");
    service.shutdown();

    assert_eq!(answered, 2);
    let lines: Vec<&str> = std::str::from_utf8(&output)
        .expect("utf-8")
        .lines()
        .collect();
    assert_eq!(lines.len(), 2, "one response line per request line");
    // Line 1: the compile response, compacted but content-identical to
    // the single-shot job layer.
    let reference = compact_json(&handle_json(&job_doc("bell", bell_qasm(), None)).unwrap());
    assert_eq!(normalize(lines[0]), normalize(&reference));
    // Line 2: a well-formed error document for the bad version.
    assert!(
        lines[1].contains("\"kind\":\"request\""),
        "got {}",
        lines[1]
    );
}

#[test]
fn malformed_and_wrong_version_documents_are_answered() {
    let service = CompileService::start(config(1, 4));
    for bad in [
        "this is not json",
        "{\"version\": 99, \"circuits\": []}",
        "{\"version\": 1}",
    ] {
        match service.submit(bad).expect("answered, not rejected") {
            Submission::Invalid(doc) => {
                assert!(doc.contains("\"version\": 1"), "got {doc}");
                assert!(doc.contains("\"ok\": false"), "got {doc}");
                assert!(doc.contains("\"kind\":\"request\""), "got {doc}");
            }
            other => panic!("expected Invalid for {bad:?}, got {other:?}"),
        }
    }
    assert_eq!(
        service
            .metrics()
            .invalid
            .load(std::sync::atomic::Ordering::Relaxed),
        3
    );
    service.shutdown();
}
