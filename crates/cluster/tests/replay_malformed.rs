//! End-to-end tests of the flight-recorder contract through the public
//! API: a recorded run replays bit-identically, and every malformed input
//! class — truncated JSONL mid-record, unknown schema versions,
//! out-of-order arrivals, duplicate job ids — is a typed [`ReplayError`],
//! never a panic (the `sx_lint` H003 contract extends to parsing
//! adversarial files).

use std::sync::Arc;

use sx_cluster::prelude::*;

fn workload(seed: u64) -> Workload {
    WorkloadSpec::repeated_topologies(16, 1.5, seed).generate()
}

/// One small run recipe.
fn recipe(seed: u64, scheduler: SchedulerSpec, admission: AdmissionSpec) -> RunSpec {
    RunSpec {
        seed,
        fleet: FleetConfig {
            qpus: 2,
            seed,
            ..FleetConfig::default()
        },
        scheduler,
        admission,
        config: SimConfig::default(),
        workload: Arc::new(workload(seed)),
    }
}

/// Record one real run into a string and hand back its flight record.
fn recorded(seed: u64) -> String {
    let run = recipe(seed, SchedulerSpec::CacheAffinity, AdmissionSpec::AdmitAll);
    let mut recorder = JsonlSink::new(Vec::new());
    recorder.write_value(&FlightHeader::new(&run).to_json());
    run.simulate(&mut recorder, None);
    let (bytes, _) = recorder.finish().expect("Vec<u8> writes cannot fail");
    String::from_utf8(bytes).expect("flight records are UTF-8")
}

#[test]
fn a_recorded_run_round_trips_and_replays_bit_identically() {
    let text = recorded(23);
    let record = parse_flight_record(&text).expect("the recorder's own output parses");
    assert_eq!(record.runs.len(), 1);
    let run = &record.runs[0];
    assert_eq!(run.header.policy, "affinity");
    assert!(run.header.replayable());

    let check = check_replay(run, &mut NullSink).expect("an admit-all run replays");
    assert_eq!(check.compared, run.records.len());
    assert_eq!(check.divergence, None, "replay must be bit-identical");

    // Re-recording the parsed run reproduces the file byte-for-byte: the
    // JSON rendering is deterministic, so diffing records is diffing runs.
    let mut recorder = JsonlSink::new(Vec::new());
    recorder.write_value(&run.header.to_json());
    replay_run(run, &mut recorder).expect("replay under a recorder");
    let (bytes, _) = recorder.finish().expect("Vec<u8> writes cannot fail");
    assert_eq!(String::from_utf8(bytes).expect("UTF-8"), text);
}

#[test]
fn truncated_jsonl_mid_record_is_a_typed_parse_error() {
    let text = recorded(23);
    // Chop the file mid-way through its final line.
    let cut = text.trim_end().len() - 7;
    let err = parse_flight_record(&text[..cut]).expect_err("truncated JSON must not parse");
    assert!(
        matches!(err, ReplayError::Json { .. }),
        "expected a Json parse error, got {err:?}"
    );
    // The error is printable and names the failing line.
    assert!(err.to_string().contains("line"));
}

#[test]
fn unknown_flight_schema_versions_are_refused() {
    let text = recorded(23).replace(FLIGHT_SCHEMA, "sx-flight-record/v999");
    match parse_flight_record(&text) {
        Err(ReplayError::UnknownSchema { found, expected }) => {
            assert_eq!(found, "sx-flight-record/v999");
            assert_eq!(expected, FLIGHT_SCHEMA);
        }
        other => panic!("expected UnknownSchema, got {other:?}"),
    }
}

#[test]
fn unknown_arrival_schema_versions_are_refused() {
    let trace = render_arrival_trace(&workload(5)).replace(ARRIVAL_SCHEMA, "sx-arrival-trace/v999");
    assert!(matches!(
        parse_arrival_trace(&trace),
        Err(ReplayError::UnknownSchema { .. })
    ));
}

#[test]
fn arrival_traces_round_trip_through_the_public_api() {
    let original = workload(5);
    let trace = render_arrival_trace(&original);
    let reread = parse_arrival_trace(&trace).expect("own output parses");
    assert_eq!(reread.jobs, original.jobs);
    assert_eq!(reread.tenants, original.tenants);
    assert_eq!(workload_digest(&reread), workload_digest(&original));
    // And the reader trait serves generators and recorded traces alike.
    let from_reader = RecordedTrace::new(trace).read().expect("reader replays");
    assert_eq!(from_reader.jobs, original.jobs);
}

#[test]
fn out_of_order_arrivals_are_a_typed_error_not_a_panic() {
    let trace = render_arrival_trace(&workload(5));
    let mut lines: Vec<&str> = trace.lines().collect();
    // Swapping two job lines breaks the non-decreasing arrival invariant
    // (Poisson arrivals are almost surely strictly increasing).
    lines.swap(3, 4);
    let err = parse_arrival_trace(&lines.join("\n")).expect_err("must refuse reordering");
    assert!(
        matches!(
            err,
            ReplayError::OutOfOrderArrival { .. }
                | ReplayError::DuplicateJobId { .. }
                | ReplayError::Field { .. }
        ),
        "expected a typed ordering error, got {err:?}"
    );
}

#[test]
fn duplicate_job_ids_are_a_typed_error_not_a_panic() {
    let trace = render_arrival_trace(&workload(5));
    let lines: Vec<&str> = trace.lines().collect();
    // Repeat a job line verbatim: its id collides with itself while its
    // arrival time stays non-decreasing, isolating the duplicate-id check.
    let mut doctored: Vec<&str> = lines.clone();
    doctored.insert(3, lines[2]);
    let err = parse_arrival_trace(&doctored.join("\n")).expect_err("must refuse duplicate ids");
    assert!(
        matches!(
            err,
            ReplayError::DuplicateJobId { .. } | ReplayError::Field { .. }
        ),
        "expected a duplicate-id error, got {err:?}"
    );
}

#[test]
fn truncated_arrival_traces_fail_the_declared_count_check() {
    let trace = render_arrival_trace(&workload(5));
    let lines: Vec<&str> = trace.lines().collect();
    let clipped = lines[..lines.len() - 2].join("\n");
    let err = parse_arrival_trace(&clipped).expect_err("must notice missing jobs");
    assert!(
        err.to_string().contains("truncated"),
        "the error should point at truncation, got: {err}"
    );
}

#[test]
fn tampered_records_keep_their_integrity_digests_honest() {
    // Flip one workload field inside the header: the embedded digest no
    // longer matches and parsing refuses the record.
    let text = recorded(23);
    let tampered = text.replacen("\"lps\":", "\"lps\":1", 1);
    assert_ne!(tampered, text, "the tamper must hit a workload job line");
    let err = parse_flight_record(&tampered).expect_err("tampering must be caught");
    assert!(
        matches!(err, ReplayError::Field { field, .. } if field == "workload_digest"),
        "expected the workload_digest integrity check, got {err:?}"
    );
}

#[test]
fn token_bucket_segments_refuse_replay_with_a_typed_error() {
    let gate = AdmissionSpec::TokenBucket {
        default: TokenBucketConfig::default(),
        per_tenant: Vec::new(),
    };
    let header = FlightHeader::new(&recipe(23, SchedulerSpec::Fifo, gate));
    assert_eq!(header.admission, "token-bucket");
    assert!(!header.replayable());
    let run = RecordedRun {
        header,
        records: Vec::new(),
    };
    match check_replay(&run, &mut NullSink) {
        Err(ReplayError::UnsupportedAdmission { admission }) => {
            assert_eq!(admission, "token-bucket");
        }
        other => panic!("expected UnsupportedAdmission, got {other:?}"),
    }
}
