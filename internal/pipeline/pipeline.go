// Package pipeline implements DiBELLA's stages 1-2 as a distributed SPMD
// program on the rt.Runtime interface (paper §3): each rank extracts
// k-mers from its own read partition, canonical k-mers are routed to hash
// owners in an irregular all-to-all, and each owner builds its share of
// the histogram as a sorted index: the received occurrences, which arrive
// in read order, are flattened into one slice and ordered by (code, read)
// with a stable radix sort, so runs of equal code are the histogram
// entries. Runs inside the reliable-frequency window turn into candidate
// pairs. Codes are walked in ascending order, so an owner's first seed for
// a pair is its smallest-code one, and that is the only record it ships
// (an owner-side combiner). Pair owners keep the smallest-code seed across
// owners, matching the serial reference exactly, and finally the tasks are
// redistributed to read owners under the owner invariant with count
// balancing ("the tasks are roughly balanced across the processors").
//
// The union of every rank's output tasks equals overlap.FromReadSet's
// serial result — seed for seed — which the tests enforce.
package pipeline

import (
	"encoding/binary"
	"fmt"
	"sort"

	"gnbody/internal/kmer"
	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// Input is one rank's view of the stage-1/2 problem.
type Input struct {
	Part  *partition.Partition
	Store seq.Store // owner-only read store; this rank scans only its range
	Lens  []int32   // global read lengths (stage-1 metadata)
	K     int
	Lo    int // reliable-frequency window
	Hi    int
}

// Output is the rank's share of the discovered work.
type Output struct {
	Tasks []overlap.Task // tasks assigned to this rank (owner invariant)

	// Stage statistics (this rank's share).
	KmersExtracted int64 // k-mer instances scanned from local reads
	KmersOwned     int64 // distinct canonical k-mers this rank arbitrates
	KmersRetained  int64 // owned k-mers inside the reliable window
	PairsEmitted   int64 // candidate pairs generated before dedup
	PairsOwned     int64 // deduplicated pairs this rank arbitrated
}

// occWire is the wire size of one k-mer occurrence record:
// 8B code + 4B read + 4B pos + 1B strand.
const occWire = 17

// taskWire is the wire size of one candidate record:
// 8B code + 4B a + 4B b + 4B posA + 4B posB + 2B k + 1B rc.
const taskWire = 27

// keyedTask pairs a candidate with the canonical code that produced it
// (dedup keeps the smallest code's seed).
type keyedTask struct {
	code uint64
	task overlap.Task
}

// hashOwner routes a 64-bit key to a rank.
func hashOwner(key uint64, p int) int {
	return int(splitmix(key) % uint64(p))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Run executes stages 1-2 on one rank. Collective: all ranks call it.
func Run(r rt.Runtime, in *Input) (*Output, error) {
	if in.K <= 0 || in.K > kmer.MaxK {
		return nil, fmt.Errorf("pipeline: k=%d out of range", in.K)
	}
	if in.Lo < 2 {
		in.Lo = 2
	}
	out := &Output{}
	p := r.Size()

	// --- Stage: local k-mer extraction, routed by canonical-code hash. ---
	var sendOcc [][]byte
	r.Timed(rt.CatOverhead, func() {
		sendOcc = make([][]byte, p)
		lo, hi := in.Part.Range(r.Rank())
		perRead := make(map[kmer.Code]struct{})
		for i := lo; i < hi; i++ {
			read := in.Store.Get(seq.ReadID(i))
			// keepPerRead=1: only a read's first occurrence of each code
			// seeds candidates (one seed per candidate overlap, §4).
			// All occurrences of a (code, read) pair originate here, so
			// local dedup is global dedup.
			for k := range perRead {
				delete(perRead, k)
			}
			err := kmer.Scan(read, in.K, func(pos int, c kmer.Code, rc bool) {
				out.KmersExtracted++
				if _, dup := perRead[c]; dup {
					return
				}
				perRead[c] = struct{}{}
				dst := hashOwner(uint64(c), p)
				var rec [occWire]byte
				binary.LittleEndian.PutUint64(rec[0:], uint64(c))
				binary.LittleEndian.PutUint32(rec[8:], uint32(read.ID))
				binary.LittleEndian.PutUint32(rec[12:], uint32(pos))
				if rc {
					rec[16] = 1
				}
				sendOcc[dst] = append(sendOcc[dst], rec[:]...)
			})
			if err != nil {
				panic(err) // K validated above
			}
		}
	})
	recvOcc := r.Alltoallv(sendOcc)

	// --- Stage: histogram + reliable window + candidate generation. ---
	var sendTask [][]byte
	var perr error
	r.Timed(rt.CatOverhead, func() {
		var occs []ownedOcc
		occs, perr = decodeOccs(r.Rank(), recvOcc)
		if perr != nil {
			return
		}
		occs = sortByCode(occs, 2*in.K)

		// Codes are walked in ascending order, so the first seed this rank
		// finds for a pair is its smallest-code seed here: ship only that
		// one. The pair owner's min-code dedup then yields exactly the
		// serial reference's seed.
		sendTask = make([][]byte, p)
		shipped := make(map[uint64]struct{})
		for i := 0; i < len(occs); {
			code := occs[i].code
			j := i + 1
			for j < len(occs) && occs[j].code == code {
				j++
			}
			run := occs[i:j]
			i = j
			out.KmersOwned++
			if len(run) < in.Lo || len(run) > in.Hi {
				continue
			}
			out.KmersRetained++
			for x := range run {
				for y := x + 1; y < len(run); y++ {
					// run is in read order, so a.read < b.read unless a
					// peer sent one read twice for a code.
					a, b := run[x], run[y]
					if a.read == b.read {
						continue
					}
					out.PairsEmitted++
					key := uint64(a.read)<<32 | uint64(b.read)
					if _, dup := shipped[key]; dup {
						continue
					}
					shipped[key] = struct{}{}
					rc := a.rc() != b.rc()
					posB := b.pos()
					if rc {
						posB = in.Lens[b.read] - posB - int32(in.K)
					}
					var rec [taskWire]byte
					binary.LittleEndian.PutUint64(rec[0:], code)
					binary.LittleEndian.PutUint32(rec[8:], a.read)
					binary.LittleEndian.PutUint32(rec[12:], b.read)
					binary.LittleEndian.PutUint32(rec[16:], uint32(a.pos()))
					binary.LittleEndian.PutUint32(rec[20:], uint32(posB))
					binary.LittleEndian.PutUint16(rec[24:], uint16(in.K))
					if rc {
						rec[26] = 1
					}
					dst := hashOwner(key, p)
					sendTask[dst] = append(sendTask[dst], rec[:]...)
				}
			}
		}
	})
	if perr != nil {
		return nil, perr
	}
	recvTask := r.Alltoallv(sendTask)

	// --- Stage: pair dedup (min-code seed wins, as in the serial path). ---
	var deduped []keyedTask
	r.Timed(rt.CatOverhead, func() {
		deduped, perr = dedupPairs(r.Rank(), recvTask)
	})
	if perr != nil {
		return nil, perr
	}
	out.PairsOwned = int64(len(deduped))

	// --- Stage: task redistribution to read owners, count-balanced. ---
	tasks, err := redistribute(r, in, deduped)
	if err != nil {
		return nil, err
	}
	out.Tasks = tasks
	return out, nil
}

// ownedOcc is one k-mer occurrence decoded at the code's owner, packed to
// 16 bytes: the strand flag rides in the low bit of posRC.
type ownedOcc struct {
	code  uint64
	read  uint32
	posRC uint32 // pos<<1 | rc
}

func (o ownedOcc) pos() int32 { return int32(o.posRC >> 1) }
func (o ownedOcc) rc() bool   { return o.posRC&1 == 1 }

// decodeOccs flattens the received occurrence buffers into one slice in
// read order, releasing each buffer once decoded.
//
// Read order is an invariant of stage 1, which sortByCode relies on: ranks
// own contiguous, ascending read ranges and each scans its range in order,
// so the buffers concatenated by source rank carry non-decreasing read
// IDs. A violation is an error, never a silently wrong sort. Each (code,
// read) occurs at most once (keepPerRead = 1), so positions need no order.
func decodeOccs(rank int, bufs [][]byte) ([]ownedOcc, error) {
	n := 0
	for src, buf := range bufs {
		if len(buf)%occWire != 0 {
			return nil, fmt.Errorf("pipeline: rank %d: ragged occurrence list from %d", rank, src)
		}
		n += len(buf) / occWire
	}
	occs := make([]ownedOcc, 0, n)
	var prev uint32
	for src, buf := range bufs {
		for off := 0; off < len(buf); off += occWire {
			o := ownedOcc{
				code:  binary.LittleEndian.Uint64(buf[off:]),
				read:  binary.LittleEndian.Uint32(buf[off+8:]),
				posRC: binary.LittleEndian.Uint32(buf[off+12:]) << 1,
			}
			if buf[off+16] == 1 {
				o.posRC |= 1
			}
			if o.read < prev {
				return nil, fmt.Errorf("pipeline: rank %d: occurrence list from %d out of read order (read %d after %d)",
					rank, src, o.read, prev)
			}
			prev = o.read
			occs = append(occs, o)
		}
		bufs[src] = nil
	}
	return occs, nil
}

// sortByCode orders occs by code with a stable LSD radix sort over the
// code's low bits, 16 per pass, and returns the sorted slice (occs itself
// or the scratch copy; the other is garbage once this returns). Stability
// keeps decodeOccs's read order, so the result is ordered by (code, read).
func sortByCode(occs []ownedOcc, bits int) []ownedOcc {
	if len(occs) < 2 {
		return occs
	}
	count := make([]int, 1<<16)
	src, dst := occs, make([]ownedOcc, len(occs))
	for shift := 0; shift < bits; shift += 16 {
		clear(count)
		for i := range src {
			count[src[i].code>>shift&0xffff]++
		}
		if count[src[0].code>>shift&0xffff] == len(src) {
			continue // every code shares this digit
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for i := range src {
			d := src[i].code >> shift & 0xffff
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}

// dedupPairs keeps, per read pair received, the candidate with the
// smallest code, and returns them sorted by pair key.
func dedupPairs(rank int, bufs [][]byte) ([]keyedTask, error) {
	best := make(map[uint64]keyedTask)
	for src, buf := range bufs {
		if len(buf)%taskWire != 0 {
			return nil, fmt.Errorf("pipeline: rank %d: ragged task list from %d", rank, src)
		}
		for off := 0; off < len(buf); off += taskWire {
			code := binary.LittleEndian.Uint64(buf[off:])
			t := overlap.Task{
				A: seq.ReadID(binary.LittleEndian.Uint32(buf[off+8:])),
				B: seq.ReadID(binary.LittleEndian.Uint32(buf[off+12:])),
				Seed: overlap.Seed{
					PosA: int32(binary.LittleEndian.Uint32(buf[off+16:])),
					PosB: int32(binary.LittleEndian.Uint32(buf[off+20:])),
					K:    int16(binary.LittleEndian.Uint16(buf[off+24:])),
					RC:   buf[off+26] == 1,
				},
			}
			cur, seen := best[t.Key()]
			if !seen || code < cur.code {
				best[t.Key()] = keyedTask{code: code, task: t}
			}
		}
	}
	deduped := make([]keyedTask, 0, len(best))
	for _, kt := range best {
		deduped = append(deduped, kt)
	}
	sort.Slice(deduped, func(i, j int) bool {
		return deduped[i].task.Key() < deduped[j].task.Key()
	})
	return deduped, nil
}

// redistribute sends each deduplicated task to the owner of one of its
// reads, balancing counts: a hash parity picks the initial owner (an
// unbiased even split of every rank's eligibility), then one global
// refinement round moves surplus tasks from overloaded ranks toward their
// alternative owner in proportion to the measured imbalance.
func redistribute(r rt.Runtime, in *Input, deduped []keyedTask) ([]overlap.Task, error) {
	p := r.Size()
	encode := func(dst [][]byte, t overlap.Task, owner int) {
		var rec [taskWire - 8]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(t.A))
		binary.LittleEndian.PutUint32(rec[4:], uint32(t.B))
		binary.LittleEndian.PutUint32(rec[8:], uint32(t.Seed.PosA))
		binary.LittleEndian.PutUint32(rec[12:], uint32(t.Seed.PosB))
		binary.LittleEndian.PutUint16(rec[16:], uint16(t.Seed.K))
		if t.Seed.RC {
			rec[18] = 1
		}
		dst[owner] = append(dst[owner], rec[:]...)
	}
	decode := func(bufs [][]byte) ([]overlap.Task, error) {
		var out []overlap.Task
		for src, buf := range bufs {
			if len(buf)%(taskWire-8) != 0 {
				return nil, fmt.Errorf("pipeline: rank %d: ragged task list from %d", r.Rank(), src)
			}
			for off := 0; off < len(buf); off += taskWire - 8 {
				out = append(out, overlap.Task{
					A: seq.ReadID(binary.LittleEndian.Uint32(buf[off:])),
					B: seq.ReadID(binary.LittleEndian.Uint32(buf[off+4:])),
					Seed: overlap.Seed{
						PosA: int32(binary.LittleEndian.Uint32(buf[off+8:])),
						PosB: int32(binary.LittleEndian.Uint32(buf[off+12:])),
						K:    int16(binary.LittleEndian.Uint16(buf[off+16:])),
						RC:   buf[off+18] == 1,
					},
				})
			}
		}
		return out, nil
	}

	// Initial split: hash parity chooses owner(A) vs owner(B).
	send := make([][]byte, p)
	for _, kt := range deduped {
		t := kt.task
		owner := in.Part.Owner(t.A)
		if alt := in.Part.Owner(t.B); alt != owner && splitmix(t.Key())&1 == 1 {
			owner = alt
		}
		encode(send, t, owner)
	}
	mine, err := decode(r.Alltoallv(send))
	if err != nil {
		return nil, err
	}

	// Refinement: learn everyone's counts (an allgather via alltoallv),
	// then overloaded ranks push surplus toward underloaded alternates.
	counts, err := allgatherCounts(r, int64(len(mine)))
	if err != nil {
		return nil, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	mean := total / int64(p)
	surplus := int64(len(mine)) - mean
	moved := make([][]byte, p)
	var kept []overlap.Task
	for _, t := range mine {
		ra, rb := in.Part.Owner(t.A), in.Part.Owner(t.B)
		alt := ra
		if ra == r.Rank() {
			alt = rb
		}
		if surplus > 0 && alt != r.Rank() && counts[alt] < mean {
			encode(moved, t, alt)
			surplus--
			continue
		}
		kept = append(kept, t)
	}
	incoming, err := decode(r.Alltoallv(moved))
	if err != nil {
		return nil, err
	}
	kept = append(kept, incoming...)
	overlap.SortTasks(kept)
	return kept, nil
}

// allgatherCounts shares every rank's task count via a tiny alltoallv.
func allgatherCounts(r rt.Runtime, mine int64) ([]int64, error) {
	p := r.Size()
	send := make([][]byte, p)
	var rec [8]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(mine))
	for dst := 0; dst < p; dst++ {
		send[dst] = rec[:]
	}
	recv := r.Alltoallv(send)
	counts := make([]int64, p)
	for src, buf := range recv {
		if len(buf) != 8 {
			return nil, fmt.Errorf("pipeline: rank %d: bad count from %d", r.Rank(), src)
		}
		counts[src] = int64(binary.LittleEndian.Uint64(buf))
	}
	return counts, nil
}
