//! Metrics: end to end from an untraced pass, per layer from a traced one.
//!
//! Per-layer attribution joins two span sources on one clock (unix
//! seconds): the program's own spans (a `job` span with one child span
//! per core stage) and the benchmark's [`Call`]s into the simulator. A
//! stage's self time is its span minus the union of the calls inside it.
//! Counts are per-job means, times are per-job medians, and shares are
//! ratios of totals.

use crate::stats::{mean, median, tail, union_len, union_len_within};
use crate::timed::{Call, CallLog, Probe};
use crate::workload::{peak_rss_mb, Outcome, Pass};
use ecripse_core::observe::RunReport;
use ecripse_core::telemetry::SpanRecord;
use std::sync::Arc;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples (jobs, set-ups, shards) it is taken over.
    pub n: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.to_string(),
        // An empty float sum is -0.0; print it as 0.
        value: value + 0.0,
        unit,
        n,
    }
}

/// The end-to-end metrics of an untraced pass. Times are steal-adjusted
/// ([`crate::workload::Timing::adjusted_s`]); the `*_wall_*` lines give
/// them as the wall clock read them.
pub fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let done: Vec<_> = pass.completed().collect();
    let n = done.len();
    let times: Vec<f64> = done.iter().map(|(job, _)| job.time.adjusted_s()).collect();
    let walls: Vec<f64> = done.iter().map(|(job, _)| job.time.wall_s).collect();
    let setups: Vec<f64> = pass.setups.iter().map(|t| t.adjusted_s()).collect();
    let setup_walls: Vec<f64> = pass.setups.iter().map(|t| t.wall_s).collect();
    let sims: Vec<f64> = done.iter().map(|(_, o)| o.simulations as f64).collect();
    let mut out = vec![
        metric("setup_s", median(&setups), "s", setups.len()),
        metric("job_p50_s", median(&times), "s", n),
        metric("jobs_per_s", n as f64 / pass.window.adjusted_s(), "1/s", n),
        metric("cpu_s_per_job", pass.cpu_s / n as f64, "s", n),
        metric("sims_per_job", mean(&sims), "count", n),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
        metric("setup_wall_s", median(&setup_walls), "s", setups.len()),
        metric("job_p50_wall_s", median(&walls), "s", n),
        metric("jobs_per_wall_s", n as f64 / pass.window.wall_s, "1/s", n),
        metric(
            "steal_share",
            pass.window.steal_s / pass.window.wall_s,
            "ratio",
            n,
        ),
    ];
    if let Some((percentile, value)) = tail(&times) {
        out.push(metric("job_tail_s", value, "s", n));
        out.push(metric("job_tail_percentile", percentile, "%", n));
    }
    out
}

/// The core stages, by their span names.
const STAGES: [&str; 3] = ["boundary_search", "particle_filter", "importance_sampling"];
/// A call log belongs to the job span opened on its node within this
/// many seconds of the log (the program builds a job's bench right after
/// opening its span).
const MATCH_TOLERANCE_S: f64 = 0.05;

/// A job span: its stages as `(name, start, end)` and the calls its
/// bench made.
struct Segment<'a> {
    stages: Vec<(&'a str, f64, f64)>,
    calls: Vec<(f64, f64)>,
}

/// Attaches to each `job` span in a job's spans the unused call log of
/// its node created closest to it. Returns a segment per job span, every
/// attached call, and how many job spans found no log.
fn segments<'a>(
    spans: &'a [SpanRecord],
    logs: &[Arc<CallLog>],
    used: &mut [bool],
) -> (Vec<Segment<'a>>, Vec<Call>, usize) {
    let mut segs = Vec::new();
    let mut calls = Vec::new();
    let mut unmatched = 0;
    for root in spans.iter().filter(|s| s.name == "job") {
        let best = logs
            .iter()
            .enumerate()
            .filter(|(i, log)| !used[*i] && log.node == root.node)
            .map(|(i, log)| (i, (log.created - root.start_ts).abs()))
            .filter(|(_, gap)| *gap < MATCH_TOLERANCE_S)
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let seg_calls = match best {
            Some((i, _)) => {
                used[i] = true;
                logs[i].calls()
            }
            None => {
                unmatched += 1;
                Vec::new()
            }
        };
        segs.push(Segment {
            stages: spans
                .iter()
                .filter(|s| s.parent_span_id == root.span_id && STAGES.contains(&s.name.as_str()))
                .map(|s| (s.name.as_str(), s.start_ts, s.end_ts()))
                .collect(),
            calls: seg_calls.iter().map(|c| (c.start, c.end)).collect(),
        });
        calls.extend(seg_calls);
    }
    (segs, calls, unmatched)
}

/// Wall and self seconds of `stage` over `segs`: each of its spans'
/// length, and that length minus the union of its segment's calls
/// inside it.
fn stage_times(segs: &[Segment], stage: &str) -> (f64, f64) {
    let (mut wall, mut own) = (0.0, 0.0);
    for seg in segs {
        for &(_, start, end) in seg.stages.iter().filter(|s| s.0 == stage) {
            wall += end - start;
            own += end - start - union_len_within(&seg.calls, (start, end));
        }
    }
    (wall, own)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-job values of each metric, aggregated once every job is in.
#[derive(Default)]
struct Columns(Vec<(&'static str, &'static str, bool, Vec<f64>)>);

impl Columns {
    fn push(&mut self, name: &'static str, unit: &'static str, median: bool, value: f64) {
        match self.0.iter_mut().find(|c| c.0 == name) {
            Some(column) => column.3.push(value),
            None => self.0.push((name, unit, median, vec![value])),
        }
    }

    /// A count or size: aggregated as the per-job mean.
    fn count(&mut self, name: &'static str, value: f64) {
        self.push(name, "count", false, value);
    }

    /// A time: aggregated as the per-job median.
    fn time(&mut self, name: &'static str, value: f64) {
        self.push(name, "s", true, value);
    }

    fn metrics(&self) -> impl Iterator<Item = Metric> + '_ {
        self.0.iter().map(|(name, unit, is_median, values)| {
            let value = if *is_median {
                median(values)
            } else {
                mean(values)
            };
            metric(name, value, unit, values.len())
        })
    }
}

/// The per-layer metrics of a traced pass. `untraced` ran the same jobs
/// without the probe; the ratio of their median job times is the tracing
/// overhead. Returns the metrics and a warning per job span that found
/// no call log.
pub fn per_layer(traced: &Pass, probe: &Probe, untraced: &Pass) -> (Vec<Metric>, Vec<String>) {
    let logs = probe.logs();
    let mut used = vec![false; logs.len()];
    let mut col = Columns::default();
    let mut warnings = Vec::new();
    let mut busy_total = 0.0;
    let mut covered_total = 0.0;
    let mut samples_total = 0.0;
    let mut wall_total = 0.0;
    let done: Vec<_> = traced.completed().collect();
    for (job, outcome) in &done {
        let (segs, calls, unmatched) = segments(&job.spans, &logs, &mut used);
        if unmatched > 0 {
            warnings.push(format!(
                "job {}: {unmatched} job span(s) without a call log",
                job.k
            ));
        }
        let busy: f64 = calls.iter().map(|c| c.end - c.start).sum();
        let samples: f64 = calls.iter().map(|c| c.samples as f64).sum();
        let covered = union_len(&calls.iter().map(|c| (c.start, c.end)).collect::<Vec<_>>());
        busy_total += busy;
        covered_total += covered;
        samples_total += samples;
        wall_total += job.time.wall_s;
        col.count("spice.calls", calls.len() as f64);
        col.count("spice.samples", samples);
        col.count(
            "spice.eval_errors",
            calls.iter().map(|c| c.errors as f64).sum(),
        );
        col.time("spice.busy_s", busy);
        col.time("spice.covered_s", covered);

        let mut self_total = 0.0;
        for (stage, wall_key, self_key) in [
            (
                "boundary_search",
                "stage.boundary_search.wall_s",
                "stage.boundary_search.self_s",
            ),
            (
                "particle_filter",
                "stage.particle_filter.wall_s",
                "stage.particle_filter.self_s",
            ),
            (
                "importance_sampling",
                "stage.importance_sampling.wall_s",
                "stage.importance_sampling.self_s",
            ),
        ] {
            let (wall, own) = stage_times(&segs, stage);
            self_total += own;
            col.time(wall_key, wall);
            col.time(self_key, own);
        }
        let in_stages: Vec<(f64, f64)> = segs
            .iter()
            .flat_map(|seg| seg.stages.iter().map(|&(_, start, end)| (start, end)))
            .collect();
        col.time("job.overhead_s", job.time.wall_s - union_len(&in_stages));
        col.push(
            "trace.attributed_share",
            "ratio",
            true,
            (self_total + covered) / job.time.wall_s,
        );
        report_columns(&mut col, outcome);
        col.push("is.rel_err", "ratio", true, outcome.rel_err());
        if let Some(serve) = &job.serve {
            col.push(
                "serve.report_kb",
                "KiB",
                false,
                outcome.report_bytes as f64 / 1024.0,
            );
            col.time("serve.submit_s", serve.submit_s);
            col.time("serve.report_s", serve.report_s);
            if let Some(root) = job.spans.iter().find(|s| s.name == "job") {
                // 0 when a worker picked the job up before the client
                // had its acknowledgment.
                col.time(
                    "serve.queue_wait_s",
                    (root.start_ts - serve.submitted_at).max(0.0),
                );
                col.time("serve.run_s", root.duration_s);
                col.time("serve.overhead_s", job.time.wall_s - root.duration_s);
            }
        }
    }

    let n = done.len();
    let reports: Vec<&RunReport> = done.iter().filter_map(|(_, o)| o.report.as_ref()).collect();
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(|r| f(r) as f64).sum::<f64>();
    let classified = sum(|r| r.oracle.classified);
    let simulated = sum(|r| r.oracle.simulated);
    let memo_hits = sum(|r| r.oracle.cache_hits);
    let curve_points = sum(|r| r.oracle.factorisations);
    let ess: f64 = reports.iter().map(|r| r.effective_sample_size).sum();
    let counters = &traced.counters;
    let attempted = traced.jobs.len().max(1) as f64;
    let rejected = traced
        .jobs
        .iter()
        .filter(|j| j.serve.is_some_and(|s| s.rejected))
        .count() as f64;
    let untraced_walls = walls(untraced);
    let traced_walls = walls(traced);

    let mut out: Vec<Metric> = col.metrics().collect();
    out.extend([
        // Shares as well as seconds: a workload whose verdicts all come
        // from the store never simulates, and a share of 0 says so
        // without a time that reads 0 on every run.
        metric(
            "spice.busy_share",
            ratio(busy_total, wall_total),
            "ratio",
            n,
        ),
        metric(
            "spice.covered_share",
            ratio(covered_total, wall_total),
            "ratio",
            n,
        ),
        metric(
            "spice.us_per_sample",
            ratio(busy_total, samples_total) * 1e6,
            "us",
            n,
        ),
        metric(
            "spice.steps_per_point",
            ratio(sum(|r| r.oracle.newton_iters), curve_points),
            "ratio",
            n,
        ),
        metric(
            "spice.seeded_share",
            ratio(sum(|r| r.oracle.warm_start_seeds), curve_points),
            "ratio",
            n,
        ),
        metric(
            "oracle.classified_share",
            ratio(classified, classified + simulated),
            "ratio",
            n,
        ),
        metric(
            "memo.hit_share",
            ratio(memo_hits, memo_hits + sum(|r| r.oracle.cache_misses)),
            "ratio",
            n,
        ),
        metric(
            "is.ess_share",
            ratio(ess, sum(|r| r.is_samples)),
            "ratio",
            n,
        ),
        metric(
            "serve.rejected",
            rejected / attempted,
            "count",
            traced.jobs.len(),
        ),
        metric(
            "serve.store_hit_share",
            ratio(
                counters.store_hits as f64,
                (counters.store_hits + counters.store_misses) as f64,
            ),
            "ratio",
            n,
        ),
        metric(
            "serve.store_entries",
            counters.store_entries as f64,
            "count",
            1,
        ),
        metric(
            "trace.overhead",
            median(&traced_walls) / median(&untraced_walls) - 1.0,
            "ratio",
            traced_walls.len(),
        ),
    ]);
    // A library job has no serve layer to count in: report 0 over 0
    // samples.
    if !out.iter().any(|m| m.name == "serve.report_kb") {
        out.push(metric("serve.report_kb", 0.0, "KiB", 0));
    }
    (out, warnings)
}

/// Counters the program reports in a job's run report.
fn report_columns(col: &mut Columns, outcome: &Outcome) {
    let total = |f: fn(&RunReport) -> u64| outcome.report.iter().map(|r| f(r) as f64).sum();
    col.count("spice.curve_points", total(|r| r.oracle.factorisations));
    col.count("spice.bisection_steps", total(|r| r.oracle.newton_iters));
    col.count("oracle.classified", total(|r| r.oracle.classified));
    col.count("oracle.simulated", total(|r| r.oracle.simulated));
    col.count(
        "oracle.uncertain_simulated",
        total(|r| r.oracle.uncertain_simulated),
    );
    col.count("oracle.retrains", total(|r| r.oracle.retrains));
    col.count("retry.retries", total(|r| r.oracle.retries));
    col.count("retry.quarantined", total(|r| r.oracle.quarantined));
    col.count("memo.hits", total(|r| r.oracle.cache_hits));
    col.count("is.samples", total(|r| r.is_samples));
    for (stage, key) in STAGES.iter().zip([
        "stage.boundary_search.sims",
        "stage.particle_filter.sims",
        "stage.importance_sampling.sims",
    ]) {
        let sims = outcome
            .report
            .iter()
            .flat_map(|r| &r.stages)
            .filter(|s| s.stage.name() == *stage)
            .map(|s| s.simulations as f64)
            .sum();
        col.count(key, sims);
    }
}

fn walls(pass: &Pass) -> Vec<f64> {
    pass.completed().map(|(job, _)| job.time.wall_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &str,
        node: &str,
        id: &str,
        parent: &str,
        start: f64,
        duration: f64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: "t".to_string(),
            span_id: id.to_string(),
            parent_span_id: parent.to_string(),
            name: name.to_string(),
            node: node.to_string(),
            start_ts: start,
            duration_s: duration,
        }
    }

    fn call(start: f64, end: f64) -> Call {
        Call {
            start,
            end,
            samples: 1,
            errors: 0,
        }
    }

    /// One served job: a log made before the job, a later rival and a
    /// log of another node must all lose to the job's own log.
    #[test]
    fn self_time_subtracts_the_jobs_own_calls_inside_each_stage() {
        let spans = vec![
            span("job", "serve", "a", "0", 10.0, 5.0),
            span("boundary_search", "serve", "a1", "a", 10.0, 1.0),
            span("particle_filter", "serve", "a2", "a", 11.0, 2.0),
            span("importance_sampling", "serve", "a3", "a", 13.0, 1.0),
        ];
        let logs = vec![
            Arc::new(CallLog::fixed("serve", 9.0, vec![call(9.1, 9.2)])),
            Arc::new(CallLog::fixed(
                "serve",
                10.0002,
                vec![call(10.1, 10.9), call(11.5, 12.0), call(12.5, 13.5)],
            )),
            Arc::new(CallLog::fixed("serve", 10.0013, vec![call(10.0, 14.0)])),
            Arc::new(CallLog::fixed("library", 10.0, vec![call(10.0, 14.0)])),
        ];
        let mut used = vec![false; logs.len()];
        let (segs, calls, unmatched) = segments(&spans, &logs, &mut used);
        assert_eq!(unmatched, 0);
        assert_eq!(used, vec![false, true, false, false]);
        assert_eq!(calls.len(), 3);
        let close = |got: (f64, f64), want: (f64, f64)| {
            assert!(
                (got.0 - want.0).abs() < 1e-9 && (got.1 - want.1).abs() < 1e-9,
                "{got:?} vs {want:?}"
            );
        };
        // (wall, self): each stage's span minus the calls inside it.
        close(stage_times(&segs, "boundary_search"), (1.0, 0.2));
        close(stage_times(&segs, "particle_filter"), (2.0, 1.0));
        close(stage_times(&segs, "importance_sampling"), (1.0, 0.5));
    }
}
