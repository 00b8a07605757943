package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// The traced pass wraps three program boundaries from the outside: every
// pipeline stage, the runtime primitives a stage calls, and each alignment
// the align stage runs. The wrappers only time and count; the traced pass
// must produce the same hits, edges and contigs as an untraced one, which
// the benchmark checks on every traced run.

// span is one traced interval on one rank, in nanoseconds since the
// tracer's epoch. Parent indexes the same rank's span list (-1: none).
type span struct {
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Stage  string `json:"stage,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Bytes  int64  `json:"bytes,omitempty"`

	child int64 // time covered by spans nested directly inside this one
}

func (s *span) dur() int64  { return s.End - s.Start }
func (s *span) self() int64 { return s.End - s.Start - s.child }

// Span names.
const (
	spanStage     = "stage"
	spanAlign     = "align"
	spanAlltoallv = "rt.alltoallv"
	spanAllreduce = "rt.allreduce"
	spanBarrier   = "rt.barrier"
	spanDrain     = "rt.drain"
	spanRPC       = "rt.rpc" // AsyncCall to the start of its callback; never nested
)

// tracer holds one traced pass's spans, one list per rank. A rank's list
// is touched only by that rank's goroutine: stages, runtime calls and RPC
// callbacks all run there under the runtime's progress contract.
type tracer struct {
	ranks []*rankTrace
}

func newTracer() *tracer {
	epoch := time.Now()
	t := &tracer{ranks: make([]*rankTrace, ranks)}
	for i := range t.ranks {
		t.ranks[i] = &rankTrace{epoch: epoch, rank: i}
	}
	return t
}

type rankTrace struct {
	epoch time.Time
	rank  int
	spans []span
	stack []int  // open nested spans
	stage string // stage currently running on this rank
	cells int64  // DP cells the traced alignments evaluated
}

func (t *rankTrace) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span nested in the innermost open one.
func (t *rankTrace) open(name string) int {
	i := t.detached(name)
	t.stack = append(t.stack, i)
	return i
}

// close ends the innermost open span, which must be i.
func (t *rankTrace) close(i int) {
	if n := len(t.stack); n == 0 || t.stack[n-1] != i {
		panic("perfbench: trace spans closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	s.End = t.now()
	if s.Parent >= 0 {
		t.spans[s.Parent].child += s.dur()
	}
}

// detached starts a span under the innermost open one that may outlive
// it and overlap later spans, so it is not pushed on the stack.
func (t *rankTrace) detached(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Rank: t.rank, Stage: t.stage, Start: t.now(), Parent: parent})
	return len(t.spans) - 1
}

// wrap returns r with its collectives, waits and RPCs timed.
func (t *tracer) wrap(r rt.Runtime) rt.Runtime {
	return &tracedRT{Runtime: r, t: t.ranks[r.Rank()]}
}

// stages wraps each stage in a span and binds the align stage's executor
// to a timed one.
func (t *tracer) stages(list []pipeline.Stage) []pipeline.Stage {
	out := make([]pipeline.Stage, len(list))
	for i, st := range list {
		if as, ok := st.(pipeline.AlignStage); ok {
			as.ExecFor = t.execFor
			st = as
		}
		out[i] = tracedStage{Stage: st, t: t}
	}
	return out
}

// execFor binds the program's real executor to a fresh workspace for one
// rank, the way resident worlds bind theirs, and times every alignment.
func (t *tracer) execFor(rank int) core.Executor {
	exec := core.RealExecutor{Scoring: align.DefaultScoring(), X: xdrop}
	return timedExec{inner: exec.WithWorkspace(align.NewWorkspace()), t: t.ranks[rank]}
}

type tracedStage struct {
	pipeline.Stage
	t *tracer
}

func (s tracedStage) Run(r rt.Runtime, pl *pipeline.Plan, store seq.Store, prev any) (any, error) {
	rk := s.t.ranks[r.Rank()]
	rk.stage = s.Name()
	i := rk.open(spanStage)
	out, err := s.Stage.Run(r, pl, store, prev)
	rk.close(i)
	rk.stage = ""
	return out, err
}

type timedExec struct {
	inner core.Executor
	t     *rankTrace
}

func (e timedExec) Align(r rt.Runtime, task overlap.Task, a, b seq.Seq) (align.Result, bool) {
	i := e.t.open(spanAlign)
	res, ok := e.inner.Align(r, task, a, b)
	e.t.close(i)
	e.t.cells += int64(res.Cells)
	return res, ok
}

// tracedRT times the primitives a rank blocks in. Everything else passes
// straight through to the program's runtime.
type tracedRT struct {
	rt.Runtime
	t *rankTrace
}

func (r *tracedRT) Barrier() {
	i := r.t.open(spanBarrier)
	r.Runtime.Barrier()
	r.t.close(i)
}

func (r *tracedRT) SplitBarrier() (wait func()) {
	w := r.Runtime.SplitBarrier()
	return func() {
		i := r.t.open(spanBarrier)
		w()
		r.t.close(i)
	}
}

func (r *tracedRT) Alltoallv(send [][]byte) [][]byte {
	i := r.t.open(spanAlltoallv)
	for _, b := range send {
		r.t.spans[i].Bytes += int64(len(b))
	}
	recv := r.Runtime.Alltoallv(send)
	r.t.close(i)
	return recv
}

func (r *tracedRT) Allreduce(v int64, op rt.Op) int64 {
	i := r.t.open(spanAllreduce)
	out := r.Runtime.Allreduce(v, op)
	r.t.close(i)
	return out
}

func (r *tracedRT) Drain(max int) {
	i := r.t.open(spanDrain)
	r.Runtime.Drain(max)
	r.t.close(i)
}

func (r *tracedRT) AsyncCall(owner int, req []byte, cb func(resp []byte)) {
	i := r.t.detached(spanRPC)
	r.Runtime.AsyncCall(owner, req, func(resp []byte) {
		r.t.spans[i].End = r.t.now()
		cb(resp)
	})
}

// writeSpans saves a traced pass's spans as JSON under dir.
func (t *tracer) writeSpans(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var all []span
	for _, rk := range t.ranks {
		all = append(all, rk.spans...)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string][]span{"spans": all}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
