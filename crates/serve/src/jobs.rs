//! The job table `serve` and the cluster coordinator share.
//!
//! Both processes speak one job protocol, so both keep one record per
//! job. A [`JobTable`] owns the jobs, the next id and the
//! idempotency-key map. A [`Job`] holds the admitted [`SubmitRequest`],
//! the lifecycle state, error and outcome, the spans the process
//! recorded for it, the acceptance instant, the deadline and the
//! cooperative stop flag, plus [`Job::local`]: what one process alone
//! keeps (`serve`'s live progress, the coordinator's trace sources).
//!
//! [`JobTable::admit`] is the only way in, for a submission and for
//! journal replay alike. [`Job::status`] builds the status document and
//! [`Job::trace_document`] the trace document;
//! [`JobTable::get`], [`JobTable::report_response`] and
//! [`JobTable::cancel_response`] give the `404`/`409` answers and the
//! report both processes share. The table never asks which process it
//! serves.

use crate::http::{error_response, json_body, Response};
use crate::protocol::{
    EstimateOutcome, JobProgress, JobReport, JobState, JobStatus, JobTrace, SubmitRequest,
    SweepOutcome,
};
use ecripse_core::telemetry::{fmt_hex_id, SpanRecord, TraceContext};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A finished job's payload.
#[derive(Debug)]
pub enum JobOutput {
    /// A single estimate's outcome.
    Estimate(EstimateOutcome),
    /// A duty sweep's (or merged shards') outcome.
    Sweep(SweepOutcome),
}

/// What a process keeps per job beyond the shared record.
pub trait JobLocal {
    /// Live progress while the job runs, shown in its status; `None`
    /// where the process keeps none.
    fn progress(&self) -> Option<JobProgress> {
        None
    }
}

/// One job: the admitted request, its lifecycle and the process's own
/// per-job state.
#[derive(Debug)]
pub struct Job<T> {
    /// The job id.
    pub id: u64,
    /// The request as admitted: the wire scenario stamped into
    /// `config`, the trace resolved.
    pub request: SubmitRequest,
    /// Lifecycle state.
    pub state: JobState,
    /// Why the job ended short of a result, when it did.
    pub error: Option<String>,
    /// The result, once completed.
    pub output: Option<JobOutput>,
    /// The spans this process recorded for the job, root first; set
    /// when the job ends.
    pub spans: Vec<SpanRecord>,
    /// When the job was admitted (or re-admitted by journal replay).
    pub accepted_at: Instant,
    /// When the job's wall-clock budget runs out; `None` for unbounded.
    pub deadline: Option<Instant>,
    /// Cooperative stop flag, raised by a cancel or a deadline.
    pub stop: Arc<AtomicBool>,
    /// What only the admitting process keeps for this job.
    pub local: T,
}

impl<T> Job<T> {
    /// The trace the job runs under.
    pub fn trace(&self) -> TraceContext {
        resolve_trace(self.id, &self.request)
    }

    /// The `GET /v1/jobs/{id}/trace` document of the spans this process
    /// recorded (none until the job ends).
    pub fn trace_document(&self) -> JobTrace {
        JobTrace {
            job_id: self.id,
            trace_id: fmt_hex_id(self.trace().trace_id),
            spans: self.spans.clone(),
        }
    }
}

impl<T: JobLocal> Job<T> {
    /// The `GET /v1/jobs/{id}` document; `queue_position` is the job's
    /// place in the process's queue, if it waits in one.
    pub fn status(&self, queue_position: Option<u64>) -> JobStatus {
        JobStatus {
            id: self.id,
            scenario: self.request.scenario,
            state: self.state,
            queue_position,
            error: self.error.clone(),
            progress: (self.state == JobState::Running)
                .then(|| self.local.progress())
                .flatten(),
            trace_id: Some(fmt_hex_id(self.trace().trace_id)),
        }
    }
}

/// The trace of job `id`: the request's own (header or body), else the
/// one derived from the id and the RNG seed.
fn resolve_trace(id: u64, request: &SubmitRequest) -> TraceContext {
    request
        .trace
        .unwrap_or_else(|| TraceContext::for_job(id, request.config.seed))
}

/// Every job a process has admitted, by id.
#[derive(Debug)]
pub struct JobTable<T> {
    jobs: HashMap<u64, Job<T>>,
    next_id: u64,
    /// Idempotency key → id of the job that first carried it.
    idempotency: HashMap<String, u64>,
}

impl<T> Default for JobTable<T> {
    fn default() -> Self {
        Self {
            jobs: HashMap::new(),
            next_id: 1,
            idempotency: HashMap::new(),
        }
    }
}

impl<T> JobTable<T> {
    /// The job an earlier submission with `request`'s idempotency key
    /// created, if any: a retry answers with it instead of a new job.
    pub fn duplicate(&self, request: &SubmitRequest) -> Option<&Job<T>> {
        let id = self.idempotency.get(request.idempotency_key.as_deref()?)?;
        self.jobs.get(id)
    }

    /// Admits `request` as a queued job under `id` (journal replay) or
    /// the next free id. The trace resolves to the request's own (the
    /// `traceparent` header, folded in by
    /// [`parse_submission`](crate::http::parse_submission), else the
    /// body's `trace`), else [`TraceContext::for_job`] of the id and
    /// seed. `record` then sees the id and the submission as sent with
    /// its resolved trace; its error admits nothing and leaves the id
    /// free (`serve` journals here). Only then is the wire scenario
    /// stamped into `config` (the wire field is authoritative), the
    /// deadline started and the job made visible, its key
    /// deduplicating later submissions.
    ///
    /// # Errors
    ///
    /// `record`'s error.
    pub fn admit<E>(
        &mut self,
        id: Option<u64>,
        mut request: SubmitRequest,
        local: T,
        record: impl FnOnce(u64, &SubmitRequest) -> Result<(), E>,
    ) -> Result<&mut Job<T>, E> {
        let id = id.unwrap_or(self.next_id);
        request.trace = Some(resolve_trace(id, &request));
        record(id, &request)?;
        request.config.scenario = request.scenario;
        self.next_id = self.next_id.max(id + 1);
        if let Some(key) = &request.idempotency_key {
            self.idempotency.insert(key.clone(), id);
        }
        let accepted_at = Instant::now();
        let job = Job {
            id,
            deadline: request
                .deadline_ms
                .map(|ms| accepted_at + Duration::from_millis(ms)),
            request,
            state: JobState::Queued,
            error: None,
            output: None,
            spans: Vec::new(),
            accepted_at,
            stop: Arc::new(AtomicBool::new(false)),
            local,
        };
        Ok(self.jobs.entry(id).insert_entry(job).into_mut())
    }

    /// Job `id`, or the `404 unknown_job` answer.
    ///
    /// # Errors
    ///
    /// The `404` response when no job has that id.
    pub fn get(&self, id: u64) -> Result<&Job<T>, Response> {
        self.jobs.get(&id).ok_or_else(|| unknown_job(id))
    }

    /// Job `id` for update, or the `404 unknown_job` answer.
    ///
    /// # Errors
    ///
    /// The `404` response when no job has that id.
    pub fn get_mut(&mut self, id: u64) -> Result<&mut Job<T>, Response> {
        self.jobs.get_mut(&id).ok_or_else(|| unknown_job(id))
    }

    /// Every job, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Job<T>> {
        self.jobs.values()
    }

    /// Every job for update, in no particular order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Job<T>> {
        self.jobs.values_mut()
    }

    /// `GET /v1/jobs/{id}/report`: `200` and the report, built from the
    /// record, once the job is terminal.
    ///
    /// # Errors
    ///
    /// `404 unknown_job`, or `409 not_ready` while the job is queued or
    /// running.
    pub fn report_response(&self, id: u64) -> Result<Response, Response> {
        let job = self.get(id)?;
        if !job.state.is_terminal() {
            let message = format!("job {id} is {}; no report yet", job.state);
            return Err(error_response(409, "not_ready", message));
        }
        let (estimate, sweep) = match &job.output {
            Some(JobOutput::Estimate(outcome)) => (Some(outcome.clone()), None),
            Some(JobOutput::Sweep(outcome)) => (None, Some(outcome.clone())),
            None => (None, None),
        };
        let report = JobReport {
            id,
            scenario: job.request.scenario,
            state: job.state,
            error: job.error.clone(),
            estimate,
            sweep,
            trace_id: Some(fmt_hex_id(job.trace().trace_id)),
        };
        Ok(Response::json(200, json_body(&report)))
    }
}

impl<T: JobLocal> JobTable<T> {
    /// `DELETE /v1/jobs/{id}` of a job no queue holds: raises its stop
    /// flag and answers `202` with its status; the job then drains to
    /// `cancelled` at its next interruption point.
    ///
    /// # Errors
    ///
    /// `404 unknown_job`, or `409 conflict` once the job is terminal.
    pub fn cancel_response(&self, id: u64) -> Result<Response, Response> {
        let job = self.get(id)?;
        if job.state.is_terminal() {
            let message = format!("job {id} is already {}", job.state);
            return Err(error_response(409, "conflict", message));
        }
        job.stop.store(true, Ordering::SeqCst);
        Ok(Response::json(202, json_body(&job.status(None))))
    }
}

fn unknown_job(id: u64) -> Response {
    error_response(404, "unknown_job", format!("no job {id}"))
}
