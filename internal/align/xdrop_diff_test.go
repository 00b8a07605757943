package align

import (
	"math/rand"
	"testing"

	"gnbody/internal/seq"
)

// The differential battery: the optimised Workspace kernel must reproduce
// the retained reference kernel bit for bit — Score, AExt, BExt and the
// Cells work measure — on any input, with the workspace deliberately kept
// dirty across cases to prove stale row contents never leak into a result.

// diffCase runs both kernels on one ExtendRight input and compares.
func diffCase(t *testing.T, w *Workspace, a, b seq.Seq, sc Scoring, x int) {
	t.Helper()
	want := extendRightRef(a, b, sc, x)
	got := w.ExtendRight(a, b, sc, x)
	if got != want {
		t.Fatalf("ExtendRight(|a|=%d,|b|=%d,%+v,x=%d):\n workspace %+v\n reference %+v",
			len(a), len(b), sc, x, got, want)
	}
}

func randSeq(rng *rand.Rand, n int) seq.Seq {
	s := make(seq.Seq, n)
	for i := range s {
		s[i] = seq.Base(rng.Intn(seq.NumBases)) // includes N
	}
	return s
}

func TestWorkspaceMatchesReferenceExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWorkspace() // shared across all cases: dirty-buffer reuse is the point
	schemes := []Scoring{
		DefaultScoring(),
		{Match: 2, Mismatch: -3, Gap: -2},
		{Match: 5, Mismatch: -4, Gap: -11},
		{Match: 1, Mismatch: -16, Gap: -1},
	}
	for iter := 0; iter < 400; iter++ {
		sc := schemes[rng.Intn(len(schemes))]
		x := rng.Intn(60)
		la, lb := rng.Intn(200), rng.Intn(200)
		var a, b seq.Seq
		switch rng.Intn(3) {
		case 0: // unrelated
			a, b = randSeq(rng, la), randSeq(rng, lb)
		case 1: // mutated copy: long extensions
			a = randSeq(rng, la)
			b = a.Clone()
			for m := 0; m < la/8; m++ {
				if la > 0 {
					b[rng.Intn(la)] = seq.Base(rng.Intn(seq.NumBases))
				}
			}
		default: // shared prefix, then divergence: mid-run termination
			a = randSeq(rng, la)
			b = append(randSeq(rng, 0), a[:la/2]...)
			b = append(b, randSeq(rng, lb/2)...)
		}
		diffCase(t, w, a, b, sc, x)
	}
}

func TestWorkspaceMatchesReferenceSeedExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := NewWorkspace()
	for iter := 0; iter < 400; iter++ {
		sc := DefaultScoring()
		if iter%3 == 0 {
			sc = Scoring{Match: 1 + rng.Intn(4), Mismatch: -1 - rng.Intn(6), Gap: -1 - rng.Intn(6)}
		}
		n := 20 + rng.Intn(300)
		a := randSeq(rng, n)
		b := a.Clone()
		for m := 0; m < n/10; m++ {
			b[rng.Intn(n)] = seq.Base(rng.Intn(seq.NumBases))
		}
		k := 1 + rng.Intn(17)
		posA := rng.Intn(n - k + 1)
		posB := rng.Intn(n - k + 1)
		x := rng.Intn(50)
		want, errW := seedExtendRef(a, b, posA, posB, k, sc, x)
		got, errG := w.SeedExtend(a, b, posA, posB, k, sc, x)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("error mismatch: ref %v, workspace %v", errW, errG)
		}
		if errW == nil && got != want {
			t.Fatalf("SeedExtend(n=%d,posA=%d,posB=%d,k=%d,x=%d):\n workspace %+v\n reference %+v",
				n, posA, posB, k, x, got, want)
		}
	}
}

// noisyCopy passes template t through a read error channel with total
// per-base rate rate, split like the CLR model: 40% substitutions, 35%
// insertions, 22% deletions and 3% N calls.
func noisyCopy(rng *rand.Rand, t seq.Seq, rate float64) seq.Seq {
	out := make(seq.Seq, 0, len(t)+len(t)/4)
	for _, c := range t {
		if rng.Float64() < rate*0.35 {
			out = append(out, seq.Base(rng.Intn(4)))
		}
		switch r := rng.Float64(); {
		case r < rate*0.22: // deleted
		case r < rate*0.25:
			out = append(out, seq.N)
		case r < rate*0.65:
			out = append(out, (c+seq.Base(1+rng.Intn(3)))%4)
		default:
			out = append(out, c)
		}
	}
	return out
}

// noisyPair draws two independent noisy copies of a random n-base template
// with an error-free k-mer seed planted at the template's middle: a[posA:]
// and b[posB:] start with the same k bases, as a discovered seed does.
func noisyPair(rng *rand.Rand, n, k int, rate float64) (a, b seq.Seq, posA, posB int) {
	tpl := make(seq.Seq, n)
	for i := range tpl {
		tpl[i] = seq.Base(rng.Intn(4))
	}
	mid := n / 2
	read := func() (seq.Seq, int) {
		r := noisyCopy(rng, tpl[:mid], rate)
		pos := len(r)
		r = append(r, tpl[mid:mid+k]...)
		return append(r, noisyCopy(rng, tpl[mid+k:], rate)...), pos
	}
	a, posA = read()
	b, posB = read()
	return a, b, posA, posB
}

// TestWorkspaceMatchesReferenceNoisyReads runs read-scale pairs through
// one dirty workspace: CLR-like pairs (15% error with indels) whose
// extensions span well past 16 kb of a+b, and HiFi-like pairs (1% error),
// under schemes with Match > 1, where best can rise several times in one
// row.
func TestWorkspaceMatchesReferenceNoisyReads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := NewWorkspace()
	schemes := []Scoring{
		DefaultScoring(),
		{Match: 2, Mismatch: -1, Gap: -1},
		{Match: 3, Mismatch: -2, Gap: -2},
	}
	cases := []struct {
		n    int
		rate float64
		x    int
	}{
		{16800, 0.15, 15},
		{16800, 0.15, 50},
		{9000, 0.01, 15},
		{9000, 0.01, 100},
	}
	for _, tc := range cases {
		for _, sc := range schemes {
			a, b, posA, posB := noisyPair(rng, tc.n, 17, tc.rate)
			want, err := seedExtendRef(a, b, posA, posB, 17, sc, tc.x)
			if err != nil {
				t.Fatal(err)
			}
			w.TakeStats()
			got, err := w.SeedExtend(a, b, posA, posB, 17, sc, tc.x)
			if err != nil {
				t.Fatal(err)
			}
			if st := w.TakeStats(); st != (KernelStats{RowExts: 2}) {
				t.Fatalf("n=%d rate=%v %+v: kernel stats %+v, want both extensions on the row kernel",
					tc.n, tc.rate, sc, st)
			}
			if got != want {
				t.Fatalf("SeedExtend(n=%d,rate=%v,%+v,x=%d):\n workspace %+v\n reference %+v",
					tc.n, tc.rate, sc, tc.x, got, want)
			}
		}
	}
}

// TestRowKernelReplayPrunes pins the replay of a row whose max beats best.
// With unit scores and x=1, row 3 (a's second C) starts at best 0, so its
// row-start threshold is -1. Column 2 raises best to 1 and the threshold to
// 0; column 4 then scores -1, which the row-start threshold keeps and the
// exact rule prunes. Without the replay's re-prune the window keeps column
// 4 and row 4 evaluates one extra cell.
func TestRowKernelReplayPrunes(t *testing.T) {
	a := seq.MustFromString("CACA")
	b := seq.MustFromString("ACCACA")
	want := Extension{Score: 1, AExt: 3, BExt: 2, Cells: 15}
	if ref := extendRightRef(a, b, DefaultScoring(), 1); ref != want {
		t.Fatalf("reference %+v, want %+v", ref, want)
	}
	w := NewWorkspace()
	if got := w.extend(a, b, DefaultScoring(), 1, false); got != want {
		t.Errorf("row kernel %+v, want %+v", got, want)
	}
	if got := w.extend(reverse(a), reverse(b), DefaultScoring(), 1, true); got != want {
		t.Errorf("reversed row kernel %+v, want %+v", got, want)
	}
}

// TestRowKernelRisesTwiceInRow pins a row where best rises twice: with
// match 3 and x=4, row 2 (a's A) raises best from 1 to 2 at column 1, then
// to 4 at column 4, so the replay's running max must carry both rises.
func TestRowKernelRisesTwiceInRow(t *testing.T) {
	a := seq.MustFromString("CA")
	b := seq.MustFromString("AACA")
	sc := Scoring{Match: 3, Mismatch: -2, Gap: -1}
	want := extendRightRef(a, b, sc, 4)
	if want != (Extension{Score: 4, AExt: 2, BExt: 4, Cells: 10}) {
		t.Fatalf("reference %+v changed; the case no longer rises twice in row 2", want)
	}
	if got := NewWorkspace().ExtendRight(a, b, sc, 4); got != want {
		t.Errorf("row kernel %+v, want %+v", got, want)
	}
}

// TestFitsInt32Boundary drives the int32 gate at its edge: the largest
// step magnitude it admits for the inputs runs on the row kernel, where the
// unpruned carry comes closest to the int32 floor, and one more unit of
// magnitude routes to the reference kernel. Both must match the reference.
func TestFitsInt32Boundary(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	w := NewWorkspace()
	const alen, blen = 6, 6
	// With x = mag, the gate admits n·mag + mag < 2^29, n = alen+blen+2.
	maxMag := (1<<29 - 1) / (alen + blen + 3)
	for _, tc := range []struct {
		mag  int
		want KernelStats
	}{
		{maxMag, KernelStats{RowExts: 1}},
		{maxMag + 1, KernelStats{RefExts: 1}},
	} {
		sc := Scoring{Match: tc.mag, Mismatch: -tc.mag, Gap: -tc.mag}
		if got := fitsInt32(alen, blen, sc, tc.mag); got != (tc.want.RowExts == 1) {
			t.Fatalf("fitsInt32 at mag %d = %v", tc.mag, got)
		}
		for iter := 0; iter < 200; iter++ {
			a, b := randSeq(rng, alen), randSeq(rng, blen)
			rev := iter%2 == 1
			want := extendRightRef(a, b, sc, tc.mag)
			if rev {
				want = extendRightRef(reverse(a), reverse(b), sc, tc.mag)
			}
			w.TakeStats()
			got := w.extend(a, b, sc, tc.mag, rev)
			if st := w.TakeStats(); st != tc.want {
				t.Fatalf("mag %d: kernel stats %+v, want %+v", tc.mag, st, tc.want)
			}
			if got != want {
				t.Fatalf("mag %d (a=%s b=%s rev=%v): workspace %+v, reference %+v",
					tc.mag, a, b, rev, got, want)
			}
		}
	}
}

// TestWorkspaceOverflowFallback drives the reference routing: scoring
// magnitudes near the int32 ceiling, and a positive gap (which the row
// kernel's deferred pruning cannot take: there it would evaluate two extra
// cells and score 17 instead of 16), must run on the reference kernel and
// still agree with it.
func TestWorkspaceOverflowFallback(t *testing.T) {
	w := NewWorkspace()
	a := seq.MustFromString("ACGTACGTAC")
	b := seq.MustFromString("ACGTTCGTAC")
	sc := Scoring{Match: 1 << 28, Mismatch: -(1 << 28), Gap: -(1 << 28)}
	if fitsInt32(len(a), len(b), sc, 10) {
		t.Fatal("guard accepted a scheme that can overflow int32")
	}
	diffCase(t, w, a, b, sc, 1<<27)

	w.TakeStats()
	diffCase(t, w, seq.MustFromString("ACCCC"), seq.MustFromString("ACACACC"),
		Scoring{Match: 3, Mismatch: -7, Gap: 1}, 2)
	if st := w.TakeStats(); st != (KernelStats{RefExts: 1}) {
		t.Errorf("positive gap routed %+v, want the reference kernel", st)
	}
}

// TestSeedExtendWarmWorkspaceAllocFree is the tentpole's allocation guard:
// with a warm workspace the whole seed-and-extend path — including the
// reversed-index left extension — performs zero heap allocations.
func TestSeedExtendWarmWorkspaceAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 2000
	a := randSeq(rng, n)
	b := a.Clone()
	for m := 0; m < n/10; m++ {
		b[rng.Intn(n)] = seq.Base(rng.Intn(4))
	}
	w := NewWorkspace()
	sc := DefaultScoring()
	if _, err := w.SeedExtend(a, b, n/2, n/2, 17, sc, 15); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := w.SeedExtend(a, b, n/2, n/2, 17, sc, 15); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm-workspace SeedExtend allocates %.1f times per run, want 0", allocs)
	}
}

// TestSWARWarmWorkspaceAllocFree (named for the packed kernel it first
// guarded) is the allocation guard on read-like input: a warm workspace
// serves seed-and-extend on a CLR-like pair, whose indels make the band
// wander and widen, with zero heap allocations, and the kernel counters
// confirm the row kernel is the path being measured.
func TestSWARWarmWorkspaceAllocFree(t *testing.T) {
	a, b, posA, posB := noisyPair(rand.New(rand.NewSource(12)), 4000, 17, 0.15)
	w := NewWorkspace()
	sc := DefaultScoring()
	if _, err := w.SeedExtend(a, b, posA, posB, 17, sc, 15); err != nil {
		t.Fatal(err)
	}
	if st := w.TakeStats(); st != (KernelStats{RowExts: 2}) {
		t.Fatalf("warm-up did not take the row kernel: %+v", st)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := w.SeedExtend(a, b, posA, posB, 17, sc, 15); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm-workspace SeedExtend on a noisy pair allocates %.1f times per run, want 0", allocs)
	}
}

// TestSWARSaturationFallback (named for the packed int16 kernel whose
// saturation it first guarded) drives seed-and-extend past the fitsInt32
// gate in each of the gate's three ways — step magnitude alone,
// accumulation over the span, and x alone — and asserts, via the kernel
// counters, that both extensions ran on the reference kernel and that the
// result equals the reference.
func TestSWARSaturationFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := NewWorkspace()
	unit := Scoring{Match: 1, Mismatch: -1, Gap: -1}
	cases := []struct {
		name string
		n    int
		sc   Scoring
		x    int
	}{
		{"huge-mag", 40, Scoring{Match: 1 << 29, Mismatch: -(1 << 29), Gap: -(1 << 29)}, 1 << 20},
		// 18000·2^15 > 2^29, though mag and x each fit.
		{"long-span", 18000, Scoring{Match: 1 << 15, Mismatch: -(1 << 15), Gap: -(1 << 15)}, 15 << 15},
		{"huge-x", 60, unit, 1 << 29},
	}
	for _, tc := range cases {
		a := randSeq(rng, tc.n)
		b := a.Clone()
		for m := 0; m < tc.n/10; m++ {
			b[rng.Intn(tc.n)] = seq.Base(rng.Intn(seq.NumBases))
		}
		const k = 4
		posA := tc.n / 2
		if fitsInt32(len(a)-posA-k, len(b)-posA-k, tc.sc, tc.x) || fitsInt32(posA, posA, tc.sc, tc.x) {
			t.Fatalf("%s: case unexpectedly admitted by the gate", tc.name)
		}
		w.TakeStats()
		got, err := w.SeedExtend(a, b, posA, posA, k, tc.sc, tc.x)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := w.TakeStats(); st != (KernelStats{RefExts: 2}) {
			t.Errorf("%s: kernel stats %+v, want both extensions on the reference", tc.name, st)
		}
		want, err := seedExtendRef(a, b, posA, posA, k, tc.sc, tc.x)
		if err != nil {
			t.Fatalf("%s: ref: %v", tc.name, err)
		}
		if got != want {
			t.Errorf("%s: fallback result %+v, reference %+v", tc.name, got, want)
		}
	}
}

// TestSWARInGateSaturationEdge (named for the packed int16 kernel's
// ceiling it first probed) scales hand-built schemes, whose three moves
// differ, to the largest multiple fitsInt32 admits for the inputs, where
// the row kernel's values and its unpruned carry come closest to the int32
// bounds. The row kernel must serve them and match the reference in both
// walk directions.
func TestSWARInGateSaturationEdge(t *testing.T) {
	w := NewWorkspace()
	cases := []struct {
		a, b string
		sc   Scoring
		x    int
	}{
		{"ACG", "ACG", Scoring{Match: 16, Mismatch: -16, Gap: -16}, 15},
		{"ACGTA", "ACTTA", Scoring{Match: 10, Mismatch: -11, Gap: -12}, 20},
		{"AAAAAAA", "AAAAAAA", Scoring{Match: 9, Mismatch: -9, Gap: -9}, 8},
		{"CCATNAG", "CATTNCAG", Scoring{Match: 3, Mismatch: -7, Gap: -5}, 11},
	}
	for _, tc := range cases {
		a, b := seq.MustFromString(tc.a), seq.MustFromString(tc.b)
		// The gate admits n·mag+x < 2^29 with n = |a|+|b|+2.
		mag := max(tc.sc.Match, -tc.sc.Mismatch, -tc.sc.Gap)
		s := (1<<29 - 1) / ((len(a)+len(b)+2)*mag + tc.x)
		sc := Scoring{Match: tc.sc.Match * s, Mismatch: tc.sc.Mismatch * s, Gap: tc.sc.Gap * s}
		x := tc.x * s
		if !fitsInt32(len(a), len(b), sc, x) {
			t.Fatalf("(%q,%q) scaled by %d not admitted; edge miscomputed", tc.a, tc.b, s)
		}
		next := Scoring{Match: sc.Match + tc.sc.Match, Mismatch: sc.Mismatch + tc.sc.Mismatch, Gap: sc.Gap + tc.sc.Gap}
		if fitsInt32(len(a), len(b), next, x+tc.x) {
			t.Fatalf("(%q,%q) scaled by %d still admitted; not at the edge", tc.a, tc.b, s+1)
		}
		for _, rev := range []bool{false, true} {
			want := extendRightRef(a, b, sc, x)
			if rev {
				want = extendRightRef(reverse(a), reverse(b), sc, x)
			}
			w.TakeStats()
			got := w.extend(a, b, sc, x, rev)
			if st := w.TakeStats(); st != (KernelStats{RowExts: 1}) {
				t.Errorf("(%q,%q,rev=%v): kernel stats %+v, want the row kernel", tc.a, tc.b, rev, st)
			}
			if got != want {
				t.Errorf("(%q,%q,rev=%v): row kernel %+v, reference %+v", tc.a, tc.b, rev, got, want)
			}
		}
	}
}

// TestRevCompWarmAllocFree pins the reverse-complement scratch: warm
// workspaces serve opposite-strand tasks without allocating.
func TestRevCompWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := randSeq(rng, 3000)
	w := NewWorkspace()
	got := w.RevComp(s)
	want := s.ReverseComplement()
	if len(got) != len(want) {
		t.Fatalf("RevComp length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("RevComp[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(50, func() { w.RevComp(s) })
	if allocs != 0 {
		t.Fatalf("warm RevComp allocates %.1f times per run, want 0", allocs)
	}
}

// fuzzAbs is |v| for fuzz-chosen ints, with MinInt (which has no positive
// counterpart) mapped to 1.
func fuzzAbs(v int) int {
	if v < 0 {
		if v == -v {
			return 1
		}
		return -v
	}
	return v
}

// fuzzScoring maps fuzz ints onto a scheme with step magnitudes up to 20000,
// all scaled by 2^(shift mod 16); the scale is returned so x can follow it.
// Scaled schemes reach past the fitsInt32 gate.
func fuzzScoring(match, mism, gap, shift int) (Scoring, int) {
	scale := 1 << (fuzzAbs(shift) % 16)
	return Scoring{
		Match:    (1 + fuzzAbs(match)%20000) * scale,
		Mismatch: -(fuzzAbs(mism) % 20000) * scale,
		Gap:      -(1 + fuzzAbs(gap)%20000) * scale,
	}, scale
}

// FuzzXDropDiff is the differential fuzz target for seed-and-extend:
// arbitrary sequences over the full alphabet (N included), seeds, X
// parameters and scoring schemes (fuzzScoring) through the workspace and
// the reference kernel, on a package-shared dirty workspace. Any
// divergence in Score/AExt/BExt/Cells fails.
func FuzzXDropDiff(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03"), []byte("\x00\x01\x02\x03"), 2, 2, 2, 15, 1, 1, 1, 0)
	f.Add([]byte("\x00\x00\x01\x01\x02\x02"), []byte("\x02\x02\x01\x01"), 0, 0, 3, 4, 1, 1, 1, 0)
	f.Add([]byte(""), []byte(""), 0, 0, 1, 0, 1, 1, 1, 0)
	// N bases and a scheme past the int32 gate.
	f.Add([]byte("\x04\x00\x01\x04\x02"), []byte("\x04\x00\x01\x03\x02"), 1, 1, 2, 30, 7, 5, 3, 15)
	w := NewWorkspace()
	f.Fuzz(func(t *testing.T, ab, bb []byte, posA, posB, k, x, match, mism, gap, shift int) {
		a := fuzzSeq(ab, 300)
		b := fuzzSeq(bb, 300)
		sc, scale := fuzzScoring(match, mism, gap, shift)
		if x < -1000 || x > 1000 {
			x %= 1000
		}
		x *= scale

		want := extendRightRef(a, b, sc, x)
		if got := w.ExtendRight(a, b, sc, x); got != want {
			t.Fatalf("ExtendRight diverged (|a|=%d,|b|=%d,%+v,x=%d):\n workspace %+v\n reference %+v",
				len(a), len(b), sc, x, got, want)
		}

		wantR, errR := seedExtendRef(a, b, posA, posB, k, sc, x)
		gotR, errG := w.SeedExtend(a, b, posA, posB, k, sc, x)
		if (errR == nil) != (errG == nil) {
			t.Fatalf("error mismatch: ref %v, workspace %v", errR, errG)
		}
		if errR == nil && gotR != wantR {
			t.Fatalf("SeedExtend diverged:\n workspace %+v\n reference %+v", gotR, wantR)
		}
	})
}

// FuzzXDropSWARDiff is the kernel-gate differential fuzz target (named for
// the packed int16 kernel it was first written against): arbitrary
// sequences over the full alphabet and scoring magnitudes up to 20000,
// scaled by up to 2^15 across the fitsInt32 gate (fuzzScoring), through
// extend in both walk directions, against the reference kernel. Inside the
// gate the row kernel must serve the extension and outside it the
// reference; either way the result must match bit for bit.
func FuzzXDropSWARDiff(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03"), []byte("\x00\x01\x02\x03"), 15, 1, 1, 1, 0)
	f.Add([]byte("\x00\x01"), []byte("\x00\x01"), 2000, 2040, 2040, 2040, 0)
	f.Add([]byte("\x00\x00\x01\x01"), []byte("\x01\x01\x00\x00"), 40, 5, 4, 11, 0)
	f.Add([]byte(""), []byte(""), 0, 1, 16000, 19999, 0)
	// N bases and a scheme past the int32 gate.
	f.Add([]byte("\x04\x00\x01\x04\x02"), []byte("\x04\x00\x01\x03\x02"), 30, 7, 5, 3, 15)
	w := NewWorkspace()
	f.Fuzz(func(t *testing.T, ab, bb []byte, x, match, mism, gap, shift int) {
		a := fuzzSeq(ab, 400)
		b := fuzzSeq(bb, 400)
		sc, scale := fuzzScoring(match, mism, gap, shift)
		x = fuzzAbs(x) % 20000 * scale
		for _, rev := range []bool{false, true} {
			want := extendRightRef(a, b, sc, x)
			if rev {
				want = extendRightRef(reverse(a), reverse(b), sc, x)
			}
			w.TakeStats()
			got := w.extend(a, b, sc, x, rev)
			if st := w.TakeStats(); fitsInt32(len(a), len(b), sc, x) != (st == KernelStats{RowExts: 1}) {
				t.Fatalf("extension routed %+v for |a|=%d,|b|=%d,%+v,x=%d", st, len(a), len(b), sc, x)
			}
			if got != want {
				t.Fatalf("extend diverged (|a|=%d,|b|=%d,%+v,x=%d,rev=%v):\n workspace %+v\n reference %+v",
					len(a), len(b), sc, x, rev, got, want)
			}
		}
	})
}
