//! `ingest_replay` — the service side only.
//!
//! Set-up wiretaps an F3 corpus (fast AFE tier, 5 ms telemetry cadence,
//! ADC-stuck faults and UART corruption on every 3rd line); the timed
//! region replays it over many virtual lines through
//! `MeterSession::offer` / `poll` / `finish` and `absorb` at two workers.
//! No simulation runs in the timed region: framing, CRC, resync, record
//! parse, loss inference and census carry the time.

use super::{digest, seed_for};
use crate::report::{measure, secs, Rep, Report};
use crate::trace::{Layers, Span};
use crate::{Args, JOBS};
use hotwire_bench::experiments::f3_ingest;
use hotwire_core::config::AfeTier;
use hotwire_rig::ingest::{absorb, feed, IngestConfig, IngestReport, LineIngest, MeterSession};
use hotwire_rig::record::{HealthCensus, PolicyRecorder, RecordPolicy};
use hotwire_rig::{exec, Fidelity, IngestStats, LineConfig};
use std::time::Instant;

/// Simulated lines wiretapped into the corpus.
const CORPUS_LINES: usize = 48;
/// Scenario seconds per corpus line.
const CORPUS_DURATION_S: f64 = 3.0;
/// Telemetry cadence of the corpus, seconds per record.
const CORPUS_CADENCE_S: f64 = 0.005;
/// Virtual lines (sessions) per replay.
const VIRTUAL_LINES: usize = 4096;
/// Virtual lines the traced pass and the jobs check replay.
const TRACED_LINES: usize = 1024;
/// Virtual lines the set-up replays once.
const WARM_LINES: usize = 256;
/// Bytes of one decoded wire frame (16-byte record + 4 framing bytes).
const FRAME_BYTES: u64 = 20;

/// One wiretapped line of the corpus.
struct CapturedLine {
    wire: Vec<u8>,
    frames_sent: u64,
    truth: HealthCensus,
    err_rms: f64,
}

struct Corpus {
    lines: Vec<CapturedLine>,
    config: IngestConfig,
}

/// Set-up: wiretaps the corpus lines (serially) and replays
/// [`WARM_LINES`] virtual lines once to warm caches and code.
fn setup(seed: u64) -> Result<Corpus, String> {
    let corpus = capture(seed)?;
    replay(&corpus, WARM_LINES, 1);
    Ok(corpus)
}

/// Wiretaps the corpus lines.
fn capture(seed: u64) -> Result<Corpus, String> {
    let mut spec = f3_ingest::fleet_spec(CORPUS_LINES, CORPUS_DURATION_S)
        .with_config(LineConfig::new().with_afe_tier(AfeTier::Fast))
        .with_sample_period(CORPUS_CADENCE_S);
    spec.seed = seed_for(seed, 0xF3);
    spec.validate().map_err(|e| e.to_string())?;
    let indices: Vec<usize> = (0..CORPUS_LINES).collect();
    let captured = exec::parallel_map_indexed(&indices, 1, |_, &line| {
        let run_spec = spec.line_spec(line);
        let mut recorder =
            PolicyRecorder::new(RecordPolicy::MetricsOnly, run_spec.reduction_plan());
        let (tail, _meter, wire) = run_spec
            .execute_wiretapped(&mut recorder)
            .map_err(|e| e.to_string())?;
        let (_, reduced) = recorder.finish();
        Ok::<CapturedLine, String>(CapturedLine {
            wire,
            frames_sent: tail.uart.frames_sent,
            truth: reduced.health_census,
            err_rms: reduced.err_rms(),
        })
    });
    Ok(Corpus {
        lines: captured.into_iter().collect::<Result<_, _>>()?,
        config: IngestConfig::for_fleet(&spec),
    })
}

fn empty_report(lines: usize) -> IngestReport {
    IngestReport {
        lines,
        stats: IngestStats::default(),
        census: HealthCensus::default(),
        truth: HealthCensus::default(),
        frames_sent: 0,
        lines_silent: 0,
        fidelity: Fidelity::default(),
        sample_alerts: Vec::new(),
    }
}

/// Ingests virtual line `line` (corpus stream `line % len`).
fn ingest_line(corpus: &Corpus, line: usize) -> LineIngest {
    let source = &corpus.lines[line % corpus.lines.len()];
    let mut session = MeterSession::new(line, corpus.config);
    feed(&mut session, &source.wire, corpus.config.chunk_bytes);
    session.finish();
    LineIngest {
        line,
        stats: session.stats(),
        census: *session.census(),
        truth: source.truth,
        frames_sent: source.frames_sent,
        last_health: session.last_health(),
        alerts: session.alerts().to_vec(),
    }
}

/// Replays `lines` virtual lines at `jobs` workers, merged in line order.
fn replay(corpus: &Corpus, lines: usize, jobs: usize) -> IngestReport {
    let indices: Vec<usize> = (0..lines).collect();
    let ingested = exec::parallel_map_indexed(&indices, jobs, |_, &i| ingest_line(corpus, i));
    let mut report = empty_report(lines);
    for line in &ingested {
        absorb(&mut report, line, corpus.config.alert_capacity);
    }
    report
}

/// Wire bytes `lines` virtual lines carry.
fn wire_bytes(corpus: &Corpus, lines: usize) -> u64 {
    (0..lines)
        .map(|i| corpus.lines[i % corpus.lines.len()].wire.len() as u64)
        .sum()
}

/// The byte ledger: every replayed byte decoded into a frame, was skipped
/// hunting for one, or was counted discarded.
fn ledger_closes(corpus: &Corpus, r: &IngestReport) -> bool {
    let link = &r.stats.link;
    wire_bytes(corpus, r.lines)
        == link.resyncs + FRAME_BYTES * link.good_frames + link.discarded_bytes
}

fn report_digest(r: &IngestReport) -> u64 {
    digest(&(
        &r.stats,
        &r.census,
        &r.truth,
        &r.fidelity,
        r.frames_sent,
        r.lines_silent,
    ))
}

pub fn end_to_end(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut last = None;
    let corpus = measure(
        report,
        args.seconds,
        || setup(args.seed),
        |corpus| {
            let start = Instant::now();
            let r = replay(corpus, VIRTUAL_LINES, JOBS);
            let wall_s = secs(start);
            let rep = Rep {
                wall_s,
                lines: VIRTUAL_LINES as u64,
                frames: r.frames_sent,
                failed: 0,
            };
            last = Some(r);
            rep
        },
    )?;
    let r = last.ok_or("no repetition ran")?;
    report.note(format!(
        "ingest digest {:016x}: {} frames sent, {} decoded, delivery {:.4}, \
         detection fidelity {:.4}",
        report_digest(&r),
        r.frames_sent,
        r.stats.link.good_frames,
        r.delivery_ratio(),
        r.fidelity.detection_accuracy()
    ));
    report.check(ledger_closes(&corpus, &r), || {
        "ingest byte ledger does not close".into()
    });
    report.check(
        r.delivery_ratio().is_finite() && r.fidelity.detection_accuracy().is_finite(),
        || "ingest accuracy metrics are not finite".into(),
    );
    report.check(
        report_digest(&replay(&corpus, TRACED_LINES, 1))
            == report_digest(&replay(&corpus, TRACED_LINES, JOBS)),
        || format!("ingest replay differs between jobs 1 and {JOBS}"),
    );
    Ok(())
}

pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let corpus = capture(args.seed)?;
    report.tally(CORPUS_LINES as u64, 0);
    let config = corpus.config;

    let start = Instant::now();
    let untraced = replay(&corpus, TRACED_LINES, 1);
    let mut untraced_s = secs(start);

    let mut layers = Layers::default();
    let (mut offer, mut poll, mut session_span, mut absorb_span) = (
        Span::default(),
        Span::default(),
        Span::default(),
        Span::default(),
    );
    let mut merged = empty_report(TRACED_LINES);
    // One clock reading ends each span and starts the next, so the spans
    // tile the loop and only the loop's own bookkeeping is unattributed.
    let start = Instant::now();
    let mut last = start;
    let mut lap = |span: &mut Span| {
        let now = Instant::now();
        span.ns += (now - last).as_nanos() as f64;
        last = now;
    };
    for i in 0..TRACED_LINES {
        let source = &corpus.lines[i % corpus.lines.len()];
        let mut session = MeterSession::new(i, config);
        session_span.calls += 1;
        lap(&mut session_span);
        // `feed`, with each offer and poll timed.
        for chunk in source.wire.chunks(config.chunk_bytes.max(1)) {
            let mut rest = chunk;
            loop {
                let consumed = session.offer(rest);
                lap(&mut offer);
                session.poll();
                lap(&mut poll);
                rest = &rest[consumed..];
                if rest.is_empty() {
                    break;
                }
            }
        }
        session.finish();
        lap(&mut poll);
        let line = LineIngest {
            line: i,
            stats: session.stats(),
            census: *session.census(),
            truth: source.truth,
            frames_sent: source.frames_sent,
            last_health: session.last_health(),
            alerts: session.alerts().to_vec(),
        };
        drop(session);
        lap(&mut session_span);
        absorb(&mut merged, &line, config.alert_capacity);
        absorb_span.calls += 1;
        lap(&mut absorb_span);
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    replay(&corpus, TRACED_LINES, 1);
    untraced_s = 0.5 * (untraced_s + secs(start));
    report.check(report_digest(&merged) == report_digest(&untraced), || {
        "traced replay differs from the untraced replay".into()
    });
    report.check(ledger_closes(&corpus, &merged), || {
        "ingest byte ledger does not close".into()
    });

    let link = &merged.stats.link;
    // Offer is charged per byte offered, poll per frame decoded.
    offer.calls = wire_bytes(&corpus, TRACED_LINES);
    poll.calls = link.good_frames;
    layers.add("rig.ingest.offer", offer);
    layers.add("rig.ingest.poll", poll);
    layers.add("rig.ingest.session", session_span);
    layers.add("rig.ingest.absorb", absorb_span);
    layers.set("isif.uart.crc_errors", link.crc_errors as f64);
    layers.set("isif.uart.resyncs", link.resyncs as f64);
    layers.set("isif.uart.recovered_frames", link.recovered_frames as f64);
    layers.set("rig.ingest.records_lost", merged.stats.records_lost as f64);
    let attempts = link.good_frames + link.crc_errors + link.aborted_frames;
    layers.set(
        "rig.ingest.good_frame_ratio",
        link.good_frames as f64 / attempts.max(1) as f64,
    );
    layers.set("rig.ingest.delivery_ratio", merged.delivery_ratio());
    layers.set(
        "rig.ingest.detection_fidelity",
        merged.fidelity.detection_accuracy(),
    );
    let errs: Vec<f64> = corpus.lines.iter().map(|l| l.err_rms).collect();
    layers.set(
        "accuracy.err_rms_p99_cm_s",
        crate::report::quantile(&errs, 0.99),
    );

    let indices: Vec<usize> = (0..TRACED_LINES).collect();
    let start = Instant::now();
    let busy = exec::parallel_map_indexed(&indices, JOBS, |_, &i| {
        let t = Instant::now();
        ingest_line(&corpus, i);
        t.elapsed().as_secs_f64()
    });
    let busy_share = busy.iter().sum::<f64>() / (JOBS as f64 * secs(start));
    layers.set("rig.exec.busy_share", busy_share);
    layers.set("trace.overhead_ratio", wall_ns / 1e9 / untraced_s);
    layers.set("trace.wall_s", wall_ns / 1e9);
    layers.emit(report, wall_ns);
    report.tally(TRACED_LINES as u64, 0);
    Ok(())
}
