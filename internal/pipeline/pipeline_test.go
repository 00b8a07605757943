package pipeline

import (
	"testing"

	"gnbody/internal/kmer"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
	"gnbody/internal/workload"
)

// scopeRank gives a rank an enforcing owner-only view of the shared read
// set: stage 1 must scan only its own partition, and any stray Get panics.
func scopeRank(r rt.Runtime, pt *partition.Partition, reads *seq.ReadSet, lens []int32) seq.Store {
	lo, hi := pt.Range(r.Rank())
	return seq.Scope(reads, lo, hi, lens)
}

// runDistributed executes stages 1-2 on the real runtime and gathers the
// per-rank outputs.
func runDistributed(t *testing.T, reads *seq.ReadSet, p, k, lo, hi int) ([]*Output, *partition.Partition) {
	t.Helper()
	outs, _, pt, err := runTapped(t, reads, p, k, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return outs, pt
}

func pipelineReads(t *testing.T, seed int64) *seq.ReadSet {
	t.Helper()
	reads, _, _, err := workload.Pipeline(workload.EColi30x, 600, seed)
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

// The central pipeline invariant: the union of all ranks' tasks equals the
// serial reference, seed for seed, for any rank count.
func TestDistributedMatchesSerial(t *testing.T) {
	reads := pipelineReads(t, 1)
	const k, lo, hi = 15, 2, 60
	idx, err := kmer.Index(reads, k, lo, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := overlap.Candidates(idx, k, func(id seq.ReadID) int { return reads.Get(id).Len() })
	overlap.SortTasks(want)
	if len(want) == 0 {
		t.Fatal("serial reference found no candidates")
	}
	for _, p := range []int{1, 2, 5, 9} {
		outs, pt := runDistributed(t, reads, p, k, lo, hi)
		var got []overlap.Task
		for rk, out := range outs {
			for _, task := range out.Tasks {
				if pt.Owner(task.A) != rk && pt.Owner(task.B) != rk {
					t.Fatalf("P=%d: rank %d violates the owner invariant with %+v", p, rk, task)
				}
			}
			got = append(got, out.Tasks...)
		}
		overlap.SortTasks(got)
		if len(got) != len(want) {
			t.Fatalf("P=%d: %d tasks, serial %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("P=%d: task %d = %+v, serial %+v", p, i, got[i], want[i])
			}
		}
	}
}

func TestDistributedBalance(t *testing.T) {
	reads := pipelineReads(t, 2)
	const p = 6
	outs, _ := runDistributed(t, reads, p, 15, 2, 60)
	total := 0
	max := 0
	for _, out := range outs {
		n := len(out.Tasks)
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		t.Fatal("no tasks")
	}
	mean := float64(total) / p
	if imb := float64(max) / mean; imb > 1.6 {
		t.Errorf("task-count imbalance %.2f after refinement (max %d, mean %.0f)", imb, max, mean)
	}
}

func TestDistributedStats(t *testing.T) {
	reads := pipelineReads(t, 3)
	outs, _ := runDistributed(t, reads, 4, 15, 2, 60)
	var extracted, owned, retained, pairs, deduped int64
	for _, out := range outs {
		extracted += out.KmersExtracted
		owned += out.KmersOwned
		retained += out.KmersRetained
		pairs += out.PairsEmitted
		deduped += out.PairsOwned
	}
	if extracted == 0 || owned == 0 || retained == 0 {
		t.Fatalf("stats empty: %d extracted, %d owned, %d retained", extracted, owned, retained)
	}
	if retained > owned {
		t.Errorf("retained %d > owned %d", retained, owned)
	}
	if deduped > pairs {
		t.Errorf("deduped %d > emitted %d", deduped, pairs)
	}
	// Owned k-mers across ranks = distinct canonical k-mers (serial count).
	h, err := kmer.CountSet(reads, 15)
	if err != nil {
		t.Fatal(err)
	}
	if owned != int64(len(h)) {
		t.Errorf("owned kmers %d != serial distinct %d", owned, len(h))
	}
}

func TestDistributedValidation(t *testing.T) {
	reads := pipelineReads(t, 4)
	lens := workload.LensOf(reads)
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, _ := partition.BySize(lensInt, 2)
	world, _ := par.NewWorld(par.Config{P: 2})
	errs := make([]error, 2)
	world.Run(func(r rt.Runtime) {
		if r.Rank() != 0 {
			return
		}
		_, errs[0] = Run(r, &Input{Part: pt, Store: scopeRank(r, pt, reads, lens), Lens: lens, K: 0})
	})
	if errs[0] == nil {
		t.Error("k=0 accepted")
	}
}

// The same SPMD program runs under the simulator (with real reads — the
// pipeline moves genuine k-mers either way) and produces the same tasks.
func TestDistributedUnderSimulator(t *testing.T) {
	reads := pipelineReads(t, 5)
	const k, lo, hi = 15, 2, 60
	outsReal, _ := runDistributed(t, reads, 4, k, lo, hi)
	var want []overlap.Task
	for _, out := range outsReal {
		want = append(want, out.Tasks...)
	}
	overlap.SortTasks(want)

	lens := workload.LensOf(reads)
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, _ := partition.BySize(lensInt, 4)
	eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: 2, RanksPerNode: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*Output, 4)
	errs := make([]error, 4)
	if err := eng.Run(func(r rt.Runtime) {
		outs[r.Rank()], errs[r.Rank()] = Run(r, &Input{
			Part: pt, Store: scopeRank(r, pt, reads, lens), Lens: lens, K: k, Lo: lo, Hi: hi,
		})
	}); err != nil {
		t.Fatal(err)
	}
	var got []overlap.Task
	for rk, out := range outs {
		if errs[rk] != nil {
			t.Fatalf("rank %d: %v", rk, errs[rk])
		}
		got = append(got, out.Tasks...)
	}
	overlap.SortTasks(got)
	if len(got) != len(want) {
		t.Fatalf("simulator pipeline: %d tasks, real %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d differs across back-ends", i)
		}
	}
	if eng.MaxClock() <= 0 {
		t.Error("no simulated time elapsed")
	}
}
