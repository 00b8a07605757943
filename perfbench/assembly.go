package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/dist"
	"gnbody/internal/genome"
	"gnbody/internal/graph"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/workload"
)

// world is what the benchmark needs of par.World and dist.World.
type world interface {
	Run(f func(rt.Runtime)) error
}

// newWorld builds a 2-rank world on the named back-end and the function
// that releases it.
func newWorld(backend string) (world, func(), error) {
	switch backend {
	case "par":
		w, err := par.NewWorld(par.Config{P: ranks})
		return w, func() {}, err
	case "dist":
		w, err := dist.NewWorld(dist.Config{P: ranks})
		if err != nil {
			return nil, nil, err
		}
		return w, func() { w.Close() }, nil
	}
	return nil, nil, fmt.Errorf("unknown back-end %q", backend)
}

// assembly is one set-up raw-reads-to-contigs run: the parsed reads, a
// world, the plan through contigs, and each rank's owner-only store.
type assembly struct {
	reads  *seq.ReadSet
	plan   *pipeline.Plan
	stores []seq.Store
	w      world
	close  func()
}

// setupAssembly parses the FASTA and builds the world, plan and stores.
// A non-nil tracer wraps the stages and the align executor.
func setupAssembly(in *readInput, backend, mode string, tr *tracer) (*assembly, error) {
	reads, err := seq.ReadFASTA(bytes.NewReader(in.fasta))
	if err != nil {
		return nil, fmt.Errorf("parse reads: %w", err)
	}
	lens := workload.LensOf(reads)
	plan, err := pipeline.NewPlan(lens, ranks, pipeline.Spec{
		K: kmerLen, Coverage: in.spec.coverage, ErrRate: in.spec.errRate})
	if err != nil {
		return nil, err
	}
	// The graph stages fetch remote records the way the align stage does,
	// as cmd/dibella runs them.
	graphMode := "bsp"
	if mode != "bsp" {
		graphMode = "async"
	}
	plan.Stages = append([]pipeline.Stage{
		pipeline.DiscoverStage{},
		pipeline.AlignStage{Mode: mode, MinScore: minScore, X: xdrop},
	}, graph.AssemblyStages(slack, minOverlap, fuzz, graphMode, nil)...)
	if tr != nil {
		plan.Stages = tr.stages(plan.Stages)
	}
	w, closeWorld, err := newWorld(backend)
	if err != nil {
		return nil, err
	}
	a := &assembly{reads: reads, plan: plan, stores: make([]seq.Store, ranks), w: w, close: closeWorld}
	for rank := range a.stores {
		lo, hi := plan.Part.Range(rank)
		a.stores[rank] = seq.Scope(reads, lo, hi, lens)
	}
	return a, nil
}

// Stage output indexes in StageRun.Outs.
const (
	outDiscover = iota
	outAlign
	outGraph
	outReduce
	outContigs
)

// assemblyOut is one run's results as gathered on rank 0, plus every
// rank's stage record.
type assemblyOut struct {
	wall      time.Duration // reads in memory to contigs gathered on rank 0
	hits      []core.Hit
	reduced   []graph.Edge
	contained []bool
	contigs   []graph.Contig
	runs      []*pipeline.StageRun
	hitsTSV   []byte   // the hits as the program renders them
	digest    [32]byte // hits, reduced edges and contigs as rendered
}

// reference is what later passes and served jobs are checked against:
// small enough to keep while they run without swelling the live heap.
type reference struct {
	digest  [32]byte
	hitsTSV []byte
}

func (o *assemblyOut) reference() reference {
	return reference{digest: o.digest, hitsTSV: o.hitsTSV}
}

// run executes the plan on every rank and gathers contigs, then hits and
// reduced edges for the checks. A non-nil tracer wraps the runtime.
func (a *assembly) run(tr *tracer) (*assemblyOut, error) {
	out := &assemblyOut{runs: make([]*pipeline.StageRun, ranks)}
	errs := make([]error, ranks)
	var end time.Time
	start := time.Now()
	err := a.w.Run(func(r rt.Runtime) {
		if tr != nil {
			r = tr.wrap(r)
		}
		rank := r.Rank()
		run, err := a.plan.RunStages(r, a.stores[rank], nil)
		if err != nil {
			errs[rank] = err
			return
		}
		out.runs[rank] = run
		contigs, cerr := graph.GatherContigs(r, run.Out.([]graph.Contig))
		if rank == 0 {
			end = time.Now()
		}
		hits := core.GatherHits(r, run.Outs[outAlign].(*core.Result).Hits)
		reduced := run.Outs[outReduce].(*graph.Graph)
		edges, eerr := graph.GatherEdges(r, reduced.EdgeList())
		if rank == 0 {
			out.contigs, out.hits, out.reduced, out.contained = contigs, hits, edges, reduced.Contained
			errs[rank] = errors.Join(cerr, eerr)
		}
	})
	if err = errors.Join(err, errors.Join(errs...)); err != nil {
		return nil, err
	}
	out.wall = end.Sub(start)

	name := func(id seq.ReadID) string { return a.reads.Get(id).Name }
	out.hitsTSV = renderHits(out.hits, name)
	var rendered bytes.Buffer
	rendered.Write(out.hitsTSV)
	if err := graph.WriteEdgeTSV(&rendered, out.reduced, out.contained, name); err != nil {
		return nil, err
	}
	if err := graph.WriteContigFASTA(&rendered, out.contigs); err != nil {
		return nil, err
	}
	out.digest = sha256.Sum256(rendered.Bytes())
	return out, nil
}

// renderHits writes hits as the service's hit TSV renders them.
func renderHits(hits []core.Hit, name func(seq.ReadID) string) []byte {
	var b bytes.Buffer
	for _, h := range hits {
		fmt.Fprintf(&b, "%s\t%s\t%d\n", name(h.A), name(h.B), h.Score)
	}
	return b.Bytes()
}

// checkSample recomputes a seeded ~1% sample of the run's tasks with the
// serial reference and requires exactly the hits the run kept for them.
func (a *assembly) checkSample(out *assemblyOut, rng *rand.Rand) error {
	var all, sample []overlap.Task
	for _, run := range out.runs {
		all = append(all, run.Outs[outDiscover].(*pipeline.Output).Tasks...)
	}
	for _, t := range all {
		if rng.Float64() < 0.01 {
			sample = append(sample, t)
		}
	}
	if len(sample) == 0 && len(all) > 0 {
		sample = append(sample, all[rng.Intn(len(all))])
	}
	want, err := core.SerialHits(a.reads, sample, align.DefaultScoring(), xdrop, minScore)
	if err != nil {
		return err
	}
	inSample := make(map[[2]seq.ReadID]bool, len(sample))
	for _, t := range sample {
		inSample[[2]seq.ReadID{t.A, t.B}] = true
	}
	var got []core.Hit
	for _, h := range out.hits {
		if inSample[[2]seq.ReadID{h.A, h.B}] {
			got = append(got, h)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("%d sampled tasks: run kept %d hits, serial reference %d (or they differ)",
			len(sample), len(got), len(want))
	}
	return nil
}

// quality scores a run's output against the layout truth. Fields are
// counts, so quality over several read sets adds up.
type quality struct {
	truthPairs, truthFound int // true pairs overlapping >= truthMinOverlap, and those hit
	hits, trueHits         int
	edges, trueEdges       int
	contigLens             []int32
}

func scoreAssembly(out *assemblyOut, truth []genome.SampledRead) quality {
	var q quality
	hit := make(map[[2]int]bool, len(out.hits))
	for _, h := range out.hits {
		a, b := int(h.A), int(h.B)
		hit[[2]int{min(a, b), max(a, b)}] = true
		q.hits++
		if genome.TrueOverlap(truth[a], truth[b]) > 0 {
			q.trueHits++
		}
	}
	for _, p := range genome.OverlapGraph(truth, truthMinOverlap) {
		q.truthPairs++
		if hit[p] {
			q.truthFound++
		}
	}
	for _, e := range out.reduced {
		q.edges++
		if genome.TrueOverlap(truth[e.From.Read()], truth[e.To.Read()]) > 0 {
			q.trueEdges++
		}
	}
	for _, c := range out.contigs {
		q.contigLens = append(q.contigLens, int32(len(c.Seq)))
	}
	return q
}

func (q *quality) add(o quality) {
	q.truthPairs += o.truthPairs
	q.truthFound += o.truthFound
	q.hits += o.hits
	q.trueHits += o.trueHits
	q.edges += o.edges
	q.trueEdges += o.trueEdges
	q.contigLens = append(q.contigLens, o.contigLens...)
}

func (q quality) values(v map[string]float64) {
	v["hit_recall_1kb"] = ratio(q.truthFound, q.truthPairs)
	v["hit_precision"] = ratio(q.trueHits, q.hits)
	v["edge_precision"] = ratio(q.trueEdges, q.edges)
	v["contig_n50_bp"] = float64(seq.StatsFromLens(q.contigLens).N50)
}

func ratio[T int | int64 | float64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
