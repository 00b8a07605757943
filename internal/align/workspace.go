package align

import (
	"fmt"

	"gnbody/internal/seq"
)

// negInf32 mirrors negInf for the int32 row representation: far enough
// below any reachable score to act as -infinity without overflowing when a
// gap penalty is added.
const negInf32 = int32(-1)<<29 - 1

// Workspace is the reusable scratch of one alignment lane: DP rows grown
// monotonically, b's base codes in walk order, the substitution table for
// the current scoring scheme, and a reverse-complement buffer. With a warm
// workspace, SeedExtend runs allocation-free — the property the hot path
// depends on, since every one of the millions of tasks would otherwise
// churn the allocator (§4.2's per-task overhead).
//
// Ownership: one workspace per rank. Every call mutates its buffers, so a
// workspace must never be shared across goroutines; the drivers obtain one
// per rank via core's PerRankExecutor hook. Under the progress contract all
// callbacks of a rank run on that rank's goroutine, so even the stealing
// driver needs no more than the rank's own workspace.
type Workspace struct {
	prev, cur []int32
	bcode     []uint8 // bcode[j]: code of the base DP column j consumes
	// sub[ca][cb&7] scores row base ca against column base cb; codes above
	// N score like N, so the 8-wide rows index without a bounds check.
	sub    [seq.NumBases][8]int32
	subFor Scoring
	subOK  bool
	rc     seq.Seq
	stats  KernelStats
}

// KernelStats counts which kernel served the extensions run on a workspace:
// the int32 row kernel, or the int reference kernel for inputs outside the
// int32 gate.
type KernelStats struct {
	RowExts int64 // extensions served by the int32 row kernel
	RefExts int64 // extensions routed to the int reference kernel
}

// TakeStats returns the counters accumulated since the last call and
// resets them — the executors drain per-task deltas through this.
func (w *Workspace) TakeStats() KernelStats {
	s := w.stats
	w.stats = KernelStats{}
	return s
}

// NewWorkspace returns an empty workspace; buffers grow on first use and
// are retained across calls.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the DP rows and the code buffer for a b of length blen and
// refreshes the substitution table when the scoring scheme changed.
func (w *Workspace) ensure(sc Scoring, blen int) {
	if cap(w.prev) < blen+1 {
		n := 2 * cap(w.prev)
		if n < blen+1 {
			n = blen + 1
		}
		if n < 256 {
			n = 256
		}
		w.prev = make([]int32, n)
		w.cur = make([]int32, n)
		w.bcode = make([]uint8, n)
	}
	if !w.subOK || w.subFor != sc {
		for x := range w.sub {
			for y := range w.sub[x] {
				w.sub[x][y] = int32(sub(sc, seq.Base(x), min(seq.Base(y), seq.N)))
			}
		}
		w.subFor, w.subOK = sc, true
	}
}

// setB fills bcode[1:len(b)+1] with the codes of b in walk order (b[j-1]
// forward, b[blen-j] reversed), clamped to N, so the row loop reads one
// contiguous code slice in either direction.
func (w *Workspace) setB(b seq.Seq, rev bool) {
	codes := w.bcode[1 : len(b)+1]
	if rev {
		for j, cb := range b {
			codes[len(b)-1-j] = uint8(min(cb, seq.N))
		}
		return
	}
	for j, cb := range b {
		codes[j] = uint8(min(cb, seq.N))
	}
}

// RevComp writes the reverse complement of s into the workspace's scratch
// buffer and returns it. The result is valid until the next RevComp call on
// this workspace; a caller that retains it must Clone it first.
func (w *Workspace) RevComp(s seq.Seq) seq.Seq {
	if cap(w.rc) < len(s) {
		w.rc = make(seq.Seq, len(s))
	}
	out := w.rc[:len(s)]
	for i, b := range s {
		out[len(s)-1-i] = b.Complement()
	}
	return out
}

// fitsInt32 reports whether every DP value for these inputs provably fits
// the int32 row representation. Genomic inputs (reads up to a few hundred
// kilobases, single-digit scoring constants) pass by orders of magnitude;
// pathological parameters fall back to the reference int kernel.
//
// Live values lie in [-x-mag, n·mag] with n = alen+blen+2, so n·mag+x <
// 2^29 keeps them above negInf32. The floor is set by the row kernel's
// unpruned left carry: a pruned cell (negInf32) plus one move gives
// negInf32−mag, and the carry adds a gap to that, so the lowest value the
// kernel forms is negInf32−2·mag. The mag < 2^29 bound keeps it above
// -3·2^29−1 > math.MinInt32, so nothing wraps.
func fitsInt32(alen, blen int, sc Scoring, x int) bool {
	const lim = 1 << 29
	abs := func(v int) int64 {
		w := int64(v)
		if w < 0 {
			return -w
		}
		return w
	}
	mag := abs(sc.Match)
	if m := abs(sc.Mismatch); m > mag {
		mag = m
	}
	if g := abs(sc.Gap); g > mag {
		mag = g
	}
	if mag >= lim || int64(x) >= lim {
		return false
	}
	n := int64(alen) + int64(blen) + 2
	if n >= 1<<31 {
		return false
	}
	return n*mag+int64(x) < lim
}

// ExtendRight is the package-level ExtendRight running on this workspace's
// buffers: identical scores, extents and cell counts, no per-call
// allocation once the rows are warm.
func (w *Workspace) ExtendRight(a, b seq.Seq, sc Scoring, x int) Extension {
	return w.extend(a, b, sc, x, false)
}

// extend runs one X-drop extension over a and b, walking both backward
// when rev is set. Inputs inside the fitsInt32 gate run on the int32 row
// kernel; the rest (pathological magnitudes, or a positive gap, which the
// deferred pruning's exactness argument excludes) run on the int
// reference. Both give identical Score, AExt, BExt and Cells.
func (w *Workspace) extend(a, b seq.Seq, sc Scoring, x int, rev bool) Extension {
	if x < 0 {
		x = 0
	}
	if sc.Gap > 0 || !fitsInt32(len(a), len(b), sc, x) {
		w.stats.RefExts++
		if rev {
			return extendRightRef(reverse(a), reverse(b), sc, x)
		}
		return extendRightRef(a, b, sc, x)
	}
	w.stats.RowExts++
	return w.extendRow(a, b, sc, x, rev)
}

// extendRow is the int32 row kernel: the reference recurrence evaluated row
// by row over the live window, with the left extension walking reversed
// indices instead of reversed copies. Results (Score, AExt, BExt, Cells)
// are identical to extendRightRef on the corresponding (possibly reversed)
// inputs.
//
// Deferred in-row pruning. The reference prunes each cell against
// best−x, where best may rise mid-row, so its left move carries a pruned
// value through a chain that also tests and updates best. Here the middle
// columns (rowSpan) carry the left move unpruned, prune each stored cell
// against the row-start threshold t0, and track the row max, so the only
// loop-carried chain is left → left+gap → max. This is exact because
// thresholds never fall within a row: a cell the exact rule prunes lies
// below the current threshold, so everything its unpruned carry gives later
// columns (less a gap each) lies lower still and is pruned either way. On a
// row where best does not rise every threshold is t0, so the stored row is
// already exact. A row whose max beats best is replayed from the first
// column that beats it: a running max re-prunes the stored cells below
// max−x and the first column of the row max becomes (bestI, bestJ). A row
// is dead exactly when its max is below t0.
func (w *Workspace) extendRow(a, b seq.Seq, sc Scoring, x int, rev bool) Extension {
	alen, blen := len(a), len(b)
	w.ensure(sc, blen)
	w.setB(b, rev)
	gap := int32(sc.Gap)
	x32 := int32(x)
	prev, cur, codes := w.prev[:blen+1], w.cur[:blen+1], w.bcode[:blen+1]

	best, bestI, bestJ := int32(0), 0, 0
	cells := 0

	// Row 0: gaps in a only. Cells here are not counted (reference
	// behaviour).
	hi := 0
	prev[0] = 0
	s := int32(0)
	for j := 1; j <= blen; j++ {
		s += gap
		if s < -x32 {
			break
		}
		prev[j] = s
		hi = j
	}

	plo, phi := 0, hi
	for i := 1; i <= alen; i++ {
		// Columns reachable this row: [plo, phi+1] clipped to b.
		lo := plo
		hi = phi + 1
		tail := hi <= blen // does the phi+1 column exist?
		if !tail {
			hi = blen
		}
		cells += hi - lo + 1

		ca := a[i-1]
		if rev {
			ca = a[alen-i]
		}
		srow := &w.sub[min(ca, seq.N)]
		t0 := best - x32

		// Column lo: only the vertical move is in-window (diagonal and left
		// would read column lo-1, below the live window).
		left := prev[lo] + gap
		rowMax := left
		cur[lo] = prune(left, t0)

		// Middle columns (lo, mid]: all three moves are in-window.
		mid := hi
		if tail {
			mid = hi - 1
		}
		if mid > lo {
			var m int32
			left, m = rowSpan(cur[lo+1:mid+1], prev[lo:mid], prev[lo+1:mid+1],
				codes[lo+1:mid+1], srow, left, gap, t0)
			rowMax = max(rowMax, m)
		}

		// Column phi+1, when it exists: the previous row ends at phi, so
		// there is no vertical move.
		if tail {
			v := max(prev[hi-1]+srow[codes[hi]&7], left+gap)
			rowMax = max(rowMax, v)
			cur[hi] = prune(v, t0)
		}

		if rowMax < t0 {
			break // X-drop termination: every live cell pruned
		}
		if rowMax > best {
			// Replay the exact rule from the first column that beats best.
			j := lo
			for cur[j] <= best {
				j++
			}
			best, bestI, bestJ = cur[j], i, j
			for j++; j <= hi; j++ {
				if v := cur[j]; v > best {
					best, bestJ = v, j
				} else if v < best-x32 {
					cur[j] = negInf32
				}
			}
		}

		// Shrink the window to live cells.
		for lo <= hi && cur[lo] == negInf32 {
			lo++
		}
		for hi >= lo && cur[hi] == negInf32 {
			hi--
		}
		prev, cur = cur, prev
		plo, phi = lo, hi
	}
	return Extension{Score: int(best), AExt: bestI, BExt: bestJ, Cells: cells}
}

// prune returns v, or negInf32 when v is below the threshold t.
func prune(v, t int32) int32 {
	if v < t {
		return negInf32
	}
	return v
}

// rowSpan computes a run of middle columns of one row: cur[k] from its
// diagonal diag[k], its vertical input up[k] and the b code codes[k],
// with left the unpruned value of the column before the run. Each cell is
// stored pruned against t0 while the left move carries it unpruned. It
// returns the last unpruned value and the run's max.
func rowSpan(cur, diag, up []int32, codes []uint8, srow *[8]int32, left, gap, t0 int32) (int32, int32) {
	diag, up, codes = diag[:len(cur)], up[:len(cur)], codes[:len(cur)]
	sr := *srow // a local copy: no per-cell nil check, and gap stays in a register
	rowMax := negInf32
	for k := range cur {
		v := max(diag[k]+sr[codes[k]&7], up[k]+gap, left+gap)
		left = v
		rowMax = max(rowMax, v)
		cur[k] = prune(v, t0)
	}
	return left, rowMax
}

// SeedExtend is the package-level SeedExtend running on this workspace:
// identical results, with the left extension walking reversed indices in
// place of the reference's reversed copies, and zero allocations once the
// workspace is warm.
func (w *Workspace) SeedExtend(a, b seq.Seq, posA, posB, k int, sc Scoring, x int) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	if posA < 0 || posB < 0 || posA+k > len(a) || posB+k > len(b) || k <= 0 {
		return Result{}, fmt.Errorf("align: seed [%d,%d)+%d out of range for lengths %d,%d",
			posA, posB, k, len(a), len(b))
	}
	seedScore := 0
	for j := 0; j < k; j++ {
		seedScore += sub(sc, a[posA+j], b[posB+j])
	}
	right := w.extend(a[posA+k:], b[posB+k:], sc, x, false)
	left := w.extend(a[:posA], b[:posB], sc, x, true)
	return Result{
		Score:  seedScore + right.Score + left.Score,
		AStart: posA - left.AExt,
		AEnd:   posA + k + right.AExt,
		BStart: posB - left.BExt,
		BEnd:   posB + k + right.BExt,
		Cells:  right.Cells + left.Cells,
	}, nil
}
