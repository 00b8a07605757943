package serve

import (
	"fmt"
	"sync"
	"time"

	"gnbody/internal/core"
	"gnbody/internal/kmer"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
)

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	// StateQueued: admitted, waiting for a world.
	StateQueued JobState = "queued"
	// StateRunning: executing on a resident world (includes retries).
	StateRunning JobState = "running"
	// StateDone: hits are available.
	StateDone JobState = "done"
	// StateFailed: terminal failure; Error/ErrorKind name the cause.
	StateFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == StateDone || s == StateFailed }

// JobSpec is the per-job parameterisation of the overlap pipeline — the
// compatibility key for request batching: jobs with equal specs may share
// a warm world back-to-back.
type JobSpec struct {
	K        int     `json:"k"`
	X        int     `json:"x"`
	MinScore int     `json:"min_score"`
	Coverage float64 `json:"coverage"`
	ErrRate  float64 `json:"error_rate"`
	LoFreq   int     `json:"lo_freq"`
	HiFreq   int     `json:"hi_freq"`
	Mode     string  `json:"mode"` // "bsp", "async" or "steal"
}

// normalize applies defaults and validates the spec.
func (s *JobSpec) normalize() error {
	if s.K == 0 {
		s.K = 17
	}
	if s.X == 0 {
		s.X = 15
	}
	if s.MinScore == 0 {
		s.MinScore = 100
	}
	if s.ErrRate == 0 {
		s.ErrRate = 0.15
	}
	if s.Mode == "" {
		s.Mode = "bsp"
	}
	if s.K < 0 || s.K > kmer.MaxK {
		return fmt.Errorf("serve: k=%d out of range (1..%d)", s.K, kmer.MaxK)
	}
	if s.X < 0 {
		return fmt.Errorf("serve: x=%d must be non-negative", s.X)
	}
	switch s.Mode {
	case "bsp", "async", "steal":
	default:
		return fmt.Errorf("serve: unknown mode %q (want bsp, async or steal)", s.Mode)
	}
	if s.Coverage < 0 || s.ErrRate < 0 || s.ErrRate >= 1 {
		return fmt.Errorf("serve: coverage/error_rate out of range")
	}
	if s.LoFreq < 0 || s.HiFreq < 0 {
		return fmt.Errorf("serve: negative frequency bound")
	}
	return nil
}

// batchKey is the compatibility class for request batching: two jobs with
// the same key run the identical pipeline configuration, so a warm world
// can take them back-to-back with nothing rebound in between.
func (s JobSpec) batchKey() string {
	return fmt.Sprintf("%d|%d|%d|%g|%g|%d|%d|%s",
		s.K, s.X, s.MinScore, s.Coverage, s.ErrRate, s.LoFreq, s.HiFreq, s.Mode)
}

// Job is one admitted overlap request. Fields under mu are mutated by the
// scheduler; everything else is immutable after admission.
type Job struct {
	ID   string
	Spec JobSpec

	reads    *seq.ReadSet // replaced under mu at a terminal state, see releaseSeqs
	estBytes int64        // admission-control estimate: total wire bytes of the read set

	// chaosKill >= 0 arms the chaos hook: the engine kills this rank of
	// the world mid-run while executing this job. Only settable when the
	// server runs with chaos enabled.
	chaosKill int

	mu       sync.Mutex
	state    JobState
	retries  int
	err      error
	errKind  string
	hits     []core.Hit
	tasks    int64
	metrics  []trace.JobRow
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{}
}

// NewJob builds a job for programmatic submission (experiments, embedding
// the pool without the HTTP front end). The spec is normalized and
// validated exactly as an HTTP submission would be.
func NewJob(id string, spec JobSpec, reads *seq.ReadSet) (*Job, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	return newJob(id, spec, reads, time.Now()), nil
}

func newJob(id string, spec JobSpec, reads *seq.ReadSet, now time.Time) *Job {
	var est int64
	for i := range reads.Reads {
		est += int64(seq.WireSizeOf(reads.Reads[i].Len()))
	}
	return &Job{
		ID: id, Spec: spec, reads: reads, estBytes: est,
		chaosKill: -1, state: StateQueued, created: now,
		done: make(chan struct{}),
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setRunning marks the job running (idempotent across retries).
func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	if j.started.IsZero() {
		j.started = now
	}
}

// complete resolves the job as done.
func (j *Job) complete(hits []core.Hit, tasks int64, rows []trace.JobRow, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state, j.hits, j.tasks, j.metrics, j.finished = StateDone, hits, tasks, rows, now
	j.releaseSeqs()
	close(j.done)
}

// fail resolves the job as failed with a typed cause.
func (j *Job) fail(err error, kind string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state, j.err, j.errKind, j.finished = StateFailed, err, kind, now
	j.releaseSeqs()
	close(j.done)
}

// releaseSeqs swaps the read set for a copy without sequences, so a
// finished job, which the server keeps, no longer pins its bases: status
// and hit output need only the read count and names. The NewJob caller
// owns the original, so it is copied, never mutated. Caller holds j.mu.
func (j *Job) releaseSeqs() {
	names := &seq.ReadSet{Reads: make([]seq.Read, len(j.reads.Reads))}
	for i, r := range j.reads.Reads {
		names.Reads[i] = seq.Read{ID: r.ID, Name: r.Name}
	}
	j.reads = names
}

// bumpRetry counts one reschedule after a rank loss.
func (j *Job) bumpRetry() {
	j.mu.Lock()
	j.retries++
	j.mu.Unlock()
}

// Retries returns how many times the job has been rescheduled.
func (j *Job) Retries() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.retries
}

// Status is the externally-visible snapshot of a job, also its JSON wire
// form on the status endpoint.
type Status struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Spec      JobSpec  `json:"spec"`
	Reads     int      `json:"reads"`
	EstBytes  int64    `json:"est_bytes"`
	Tasks     int64    `json:"tasks,omitempty"`
	Hits      int      `json:"hits,omitempty"`
	Retries   int      `json:"retries"`
	Error     string   `json:"error,omitempty"`
	ErrorKind string   `json:"error_kind,omitempty"`
	ElapsedMS int64    `json:"elapsed_ms,omitempty"`
}

// Status snapshots the job under its lock.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, State: j.state, Spec: j.Spec,
		Reads: j.reads.Len(), EstBytes: j.estBytes,
		Tasks: j.tasks, Hits: len(j.hits), Retries: j.retries,
	}
	if j.err != nil {
		st.Error, st.ErrorKind = j.err.Error(), j.errKind
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		st.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	}
	return st
}

// Hits returns the job's saved alignments (nil until done) and whether the
// job is done.
func (j *Job) Hits() ([]core.Hit, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hits, j.state == StateDone
}

// Metrics returns the job-scoped per-rank metrics rows (nil until done).
func (j *Job) Metrics() []trace.JobRow {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.metrics
}

// ReadName resolves a ReadID to the submitted read's name (hit output).
func (j *Job) ReadName(id seq.ReadID) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reads.Get(id).Name
}
