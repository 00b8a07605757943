package pipeline

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"gnbody/internal/genome"
	"gnbody/internal/kmer"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/workload"
)

// wireTap wraps one rank's runtime and keeps a copy of what the rank sends
// in each Alltoallv, in call order.
type wireTap struct {
	rt.Runtime
	sent [][][]byte
}

func (w *wireTap) Alltoallv(send [][]byte) [][]byte {
	cp := make([][]byte, len(send))
	for dst, buf := range send {
		cp[dst] = append([]byte(nil), buf...)
	}
	w.sent = append(w.sent, cp)
	return w.Runtime.Alltoallv(send)
}

// runTapped executes stages 1-2 on p ranks of the real runtime, each rank
// behind a wireTap, and returns every rank's output and the first error.
func runTapped(t *testing.T, reads *seq.ReadSet, p, k, lo, hi int) ([]*Output, []*wireTap, *partition.Partition, error) {
	t.Helper()
	lens := workload.LensOf(reads)
	lensInt := make([]int, len(lens))
	for i, l := range lens {
		lensInt[i] = int(l)
	}
	pt, err := partition.BySize(lensInt, p)
	if err != nil {
		t.Fatal(err)
	}
	world, err := par.NewWorld(par.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*Output, p)
	taps := make([]*wireTap, p)
	errs := make([]error, p)
	world.Run(func(r rt.Runtime) {
		tap := &wireTap{Runtime: r}
		taps[r.Rank()] = tap
		outs[r.Rank()], errs[r.Rank()] = Run(tap, &Input{
			Part: pt, Store: scopeRank(r, pt, reads, lens), Lens: lens, K: k, Lo: lo, Hi: hi,
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return outs, taps, pt, nil
}

// strandedReads samples reads from both strands of a random genome and
// overwrites a run of Ns in every third read, on top of the sampler's
// scattered N calls.
func strandedReads(t *testing.T, seed int64, genomeLen int, coverage float64) *seq.ReadSet {
	t.Helper()
	g := genome.Generate(genome.Config{Length: genomeLen, Seed: seed})
	s, err := genome.NewSampler(g, genome.ReadConfig{
		Coverage: coverage, MeanLen: 600, SigmaLog: 0.3, BothStrands: true, Seed: seed,
		Errors: genome.ErrorModel{Substitution: 0.004, Insertion: 0.002, Deletion: 0.002, NRate: 0.002},
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, _ := s.Sample()
	for i := 0; i < reads.Len(); i += 3 {
		sq := reads.Reads[i].Seq
		for j := len(sq) / 2; j < len(sq)/2+40 && j < len(sq); j++ {
			sq[j] = seq.N
		}
	}
	return reads
}

// readHistogram counts, per canonical code, the reads it occurs in: the
// histogram stage 1 ships (one occurrence per code and read).
func readHistogram(t *testing.T, reads *seq.ReadSet, k int) map[kmer.Code]int {
	t.Helper()
	h := make(map[kmer.Code]int)
	for i := range reads.Reads {
		seen := make(map[kmer.Code]bool)
		if err := kmer.Scan(&reads.Reads[i], k, func(_ int, c kmer.Code, _ bool) {
			if !seen[c] {
				seen[c] = true
				h[c]++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// Differential test of discovery against the serial reference, seed for
// seed, across rank counts (more ranks than reads included), k up to the
// 62-bit codes of MaxK, both strands and N runs. The per-rank statistics
// keep their definitions — PairsEmitted counts pairs before any dedup —
// and the candidate exchange carries at most one record per read pair
// from each sending rank.
func TestDiscoverDifferential(t *testing.T) {
	sets := []struct {
		name  string
		reads *seq.ReadSet
	}{
		{"few-reads", strandedReads(t, 3, 1500, 2)},
		{"stranded", strandedReads(t, 4, 12000, 8)},
	}
	if n := sets[0].reads.Len(); n >= 8 {
		t.Fatalf("few-reads set has %d reads, want fewer than the largest rank count", n)
	}
	const lo, hi = 2, 5
	for _, set := range sets {
		for _, k := range []int{15, 17, 31, 32} {
			want, _, _, serr := overlap.FromReadSet(set.reads, overlap.Config{K: k, Lo: lo, Hi: hi})
			var owned, retained, emitted int64
			if serr == nil {
				overlap.SortTasks(want)
				for _, n := range readHistogram(t, set.reads, k) {
					owned++
					if n >= lo && n <= hi {
						retained++
						emitted += int64(n * (n - 1) / 2)
					}
				}
			}
			for _, p := range []int{1, 2, 3, 5, 8} {
				outs, taps, pt, err := runTapped(t, set.reads, p, k, lo, hi)
				if k > kmer.MaxK {
					if serr == nil || err == nil {
						t.Fatalf("%s k=%d p=%d: serial err %v, distributed err %v; want both to reject k", set.name, k, p, serr, err)
					}
					continue
				}
				if serr != nil || err != nil {
					t.Fatalf("%s k=%d p=%d: serial err %v, distributed err %v", set.name, k, p, serr, err)
				}
				var got []overlap.Task
				var st Output
				for rk, out := range outs {
					for _, task := range out.Tasks {
						if pt.Owner(task.A) != rk && pt.Owner(task.B) != rk {
							t.Fatalf("%s k=%d p=%d: rank %d violates the owner invariant with %+v", set.name, k, p, rk, task)
						}
					}
					got = append(got, out.Tasks...)
					st.KmersOwned += out.KmersOwned
					st.KmersRetained += out.KmersRetained
					st.PairsEmitted += out.PairsEmitted
					st.PairsOwned += out.PairsOwned
				}
				overlap.SortTasks(got)
				if len(got) != len(want) {
					t.Fatalf("%s k=%d p=%d: %d tasks, serial %d", set.name, k, p, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d p=%d: task %d = %+v, serial %+v", set.name, k, p, i, got[i], want[i])
					}
				}
				if st.KmersOwned != owned || st.KmersRetained != retained ||
					st.PairsEmitted != emitted || st.PairsOwned != int64(len(want)) {
					t.Errorf("%s k=%d p=%d: owned/retained/emitted/pairs %d/%d/%d/%d, want %d/%d/%d/%d",
						set.name, k, p, st.KmersOwned, st.KmersRetained, st.PairsEmitted, st.PairsOwned,
						owned, retained, emitted, len(want))
				}
				for rk, tap := range taps {
					pairs := make(map[uint64]bool)
					for _, buf := range tap.sent[1] { // the candidate exchange
						for off := 0; off+taskWire <= len(buf); off += taskWire {
							key := uint64(binary.LittleEndian.Uint32(buf[off+8:]))<<32 |
								uint64(binary.LittleEndian.Uint32(buf[off+12:]))
							if pairs[key] {
								t.Fatalf("%s k=%d p=%d: rank %d ships pair %x twice", set.name, k, p, rk, key)
							}
							pairs[key] = true
						}
					}
				}
			}
		}
	}
}

func occRecord(code uint64, read, pos uint32, rc bool) []byte {
	var rec [occWire]byte
	binary.LittleEndian.PutUint64(rec[0:], code)
	binary.LittleEndian.PutUint32(rec[8:], read)
	binary.LittleEndian.PutUint32(rec[12:], pos)
	if rc {
		rec[16] = 1
	}
	return rec[:]
}

func TestDecodeOccs(t *testing.T) {
	bufs := [][]byte{
		append(occRecord(7, 1, 10, false), occRecord(3, 1, 12, true)...),
		nil,
		occRecord(7, 4, 99, true),
	}
	occs, err := decodeOccs(0, bufs)
	if err != nil {
		t.Fatal(err)
	}
	want := []ownedOcc{{7, 1, 20}, {3, 1, 25}, {7, 4, 199}}
	if len(occs) != len(want) {
		t.Fatalf("decoded %d occurrences, want %d", len(occs), len(want))
	}
	for i, o := range occs {
		if o != want[i] {
			t.Errorf("occurrence %d = %+v, want %+v", i, o, want[i])
		}
	}
	if o := occs[2]; o.pos() != 99 || !o.rc() {
		t.Errorf("pos/rc = %d/%v, want 99/true", o.pos(), o.rc())
	}
	for src, buf := range bufs {
		if buf != nil {
			t.Errorf("buffer from %d not released after decoding", src)
		}
	}

	for _, tc := range []struct {
		name string
		bufs [][]byte
		want string
	}{
		{"ragged", [][]byte{occRecord(1, 0, 0, false), occRecord(1, 2, 0, false)[:occWire-1]}, "ragged occurrence list from 1"},
		{"within a buffer", [][]byte{append(occRecord(1, 5, 0, false), occRecord(2, 4, 0, false)...)}, "out of read order"},
		{"across buffers", [][]byte{occRecord(1, 5, 0, false), nil, occRecord(1, 3, 0, false)}, "occurrence list from 2 out of read order"},
	} {
		if _, err := decodeOccs(3, tc.bufs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// The radix sort is stable over the full 64-bit code width (k = 32), so
// read order survives within each code; repeated digits exercise the
// skipped passes.
func TestSortByCode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name string
		bits int
		code func() uint64
	}{
		{"k=32", 64, func() uint64 { return rng.Uint64()>>uint(rng.Intn(64)) | uint64(rng.Intn(2))<<63 }},
		{"k=15", 30, func() uint64 { return uint64(rng.Intn(64)) << 16 }},
		{"one code", 62, func() uint64 { return 1<<61 | 5 }},
	} {
		occs := make([]ownedOcc, 5000)
		for i := range occs {
			occs[i] = ownedOcc{code: tc.code(), read: uint32(i / 3), posRC: uint32(i)}
		}
		want := append([]ownedOcc(nil), occs...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].code < want[j].code })
		got := sortByCode(occs, tc.bits)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: element %d = %+v, want %+v", tc.name, i, got[i], want[i])
			}
		}
	}
}

func taskRecord(code uint64, a, b uint32, posA, posB uint32, rc bool) []byte {
	var rec [taskWire]byte
	binary.LittleEndian.PutUint64(rec[0:], code)
	binary.LittleEndian.PutUint32(rec[8:], a)
	binary.LittleEndian.PutUint32(rec[12:], b)
	binary.LittleEndian.PutUint32(rec[16:], posA)
	binary.LittleEndian.PutUint32(rec[20:], posB)
	binary.LittleEndian.PutUint16(rec[24:], 15)
	if rc {
		rec[26] = 1
	}
	return rec[:]
}

func TestDedupPairs(t *testing.T) {
	bufs := [][]byte{
		append(taskRecord(9, 2, 5, 1, 1, false), taskRecord(8, 0, 1, 7, 7, false)...),
		taskRecord(4, 2, 5, 30, 40, true),
	}
	got, err := dedupPairs(0, bufs)
	if err != nil {
		t.Fatal(err)
	}
	want := []keyedTask{
		{code: 8, task: overlap.Task{A: 0, B: 1, Seed: overlap.Seed{PosA: 7, PosB: 7, K: 15}}},
		{code: 4, task: overlap.Task{A: 2, B: 5, Seed: overlap.Seed{PosA: 30, PosB: 40, K: 15, RC: true}}},
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pair %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	ragged := [][]byte{taskRecord(1, 0, 1, 0, 0, false), taskRecord(2, 0, 2, 0, 0, false)[:taskWire-3]}
	if _, err := dedupPairs(2, ragged); err == nil || err.Error() != "pipeline: rank 2: ragged task list from 1" {
		t.Errorf("ragged tail: err %v", err)
	}
}
