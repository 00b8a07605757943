package core

import (
	"encoding/binary"
	"fmt"

	"gnbody/internal/align"

	"gnbody/internal/overlap"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
)

// Config tunes the drivers.
type Config struct {
	Exec     Executor
	MinScore int // hits with Score >= MinScore are saved

	// MaxOutstanding caps in-flight AsyncCalls in the asynchronous driver
	// ("varying limits on outgoing requests", §4.3). Default 64.
	MaxOutstanding int

	// PollEvery is how many tasks the asynchronous driver computes
	// between Progress calls. Default 1: UPC++ engages internal progress
	// on essentially every runtime call, and coarser polling starves
	// peers whose requests land on a computing rank (the poll-interval
	// ablation quantifies this).
	PollEvery int

	// FetchBatch is how many same-owner remote reads one async RPC pulls.
	// Default 1 (the paper's per-read pull); larger values trade memory
	// for per-message amortisation (§5's aggregation knob).
	FetchBatch int

	// StealBatch is how many task groups one work-steal request transfers
	// in RunAsyncStealing. Default 8.
	StealBatch int

	// CacheBudget enables the per-rank remote-read cache (DESIGN.md §13):
	// fetched bases are retained under an LRU bound of this many bytes of
	// planned wire size, so a read referenced by several tasks — or by a
	// later Run over the same world — crosses the wire once. 0 disables
	// the cache; negative means retain without bound.
	CacheBudget int64

	// Cache supplies a caller-owned cache instead of the fresh per-Run one
	// CacheBudget builds, letting retained reads survive across Runs on
	// the same rank. Takes precedence over CacheBudget. A cache must only
	// ever be used by a single rank (it is unlocked by design).
	Cache *ReadCache

	// NoBatch disables length-bucketed batch scheduling (DESIGN.md §16):
	// task groups run in discovery order instead of bucketed order. The
	// result set is identical either way; this is the ablation knob.
	NoBatch bool
}

func (cfg *Config) defaults() {
	// cfg is a per-Run value copy, so binding per-rank executor state here
	// gives each rank its own instance (one alignment workspace per rank).
	if pr, ok := cfg.Exec.(PerRankExecutor); ok {
		cfg.Exec = pr.ForRank()
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 64
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 1
	}
	if cfg.FetchBatch <= 0 {
		cfg.FetchBatch = 1
	}
	if cfg.StealBatch <= 0 {
		cfg.StealBatch = 8
	}
	if cfg.Cache == nil && cfg.CacheBudget != 0 {
		// Like the executor binding above: cfg is a per-Run value copy, so
		// this cache is private to the calling rank.
		cfg.Cache = NewReadCache(cfg.CacheBudget)
	}
}

// mkHit materialises a saved alignment.
func mkHit(t overlap.Task, res align.Result) Hit {
	return Hit{A: t.A, B: t.B, Score: int32(res.Score),
		AStart: int32(res.AStart), AEnd: int32(res.AEnd),
		BStart: int32(res.BStart), BEnd: int32(res.BEnd), RC: t.Seed.RC}
}

// RunBSP executes the bulk-synchronous driver on one rank (§3.1): remote
// reads are pulled in one or more aggregated irregular all-to-alls, with
// superstep sizes chosen dynamically against the per-rank memory budget;
// every alignment waiting on a received read runs as the read is unpacked
// from the receive buffer. Collective: all ranks must call it.
func RunBSP(r rt.Runtime, in *Input, cfg Config) (*Result, error) {
	cfg.defaults()
	if err := in.validate(r.Rank()); err != nil {
		return nil, err
	}
	out := &Result{}
	var store *flatStore
	r.Timed(rt.CatOverhead, func() { store = buildFlatStore(in, r.Rank()) })
	out.LocalTasks = len(store.local)
	out.RemoteTasks = len(store.remote)
	out.RemoteReads = len(store.groups)

	base := in.PartitionBytes(r.Rank())
	r.Alloc(base)
	defer r.Free(base)
	met := r.Metrics()
	met.StoreBytes = in.storeBytes(r.Rank())

	// Tasks with both reads local need no exchange. BSP never nests task
	// loops (no completion callbacks), so one batcher serves the whole Run.
	var bt batcher
	bt.loadFlat(store.local)
	bt.run(r, in, &cfg, 0, nil, false, out, 0)

	// Cache pre-pass: any remote read already resident (retained by an
	// earlier Run over the same world) runs its tasks now and drops out of
	// the exchange plan entirely — the superstep loop below only ever sees
	// the misses. One Acquire per group is the fetch decision.
	cache := cfg.Cache
	groups := store.groups
	if cache != nil {
		unbind := cache.bind(r)
		defer unbind()
		misses := groups[:0:0]
		for _, g := range groups {
			if bases, ok := cache.Acquire(g.read, 1); ok {
				out.CacheHits++
				bt.loadFlat(store.tasksOf(g))
				bt.run(r, in, &cfg, g.read, bases, true, out, 0)
				cache.Release(g.read, 1)
				continue
			}
			misses = append(misses, g)
		}
		groups = misses
	}

	// Dynamically-sized supersteps: request remote reads in chunks that fit
	// the memory budget, exchange, compute while unpacking, repeat until no
	// rank has reads left to fetch.
	next := 0
	tb := r.Tracer()
	var dbuf seq.Seq // reused across all supersteps' unpack loops
	budget := r.MemBudget()
	if budget > 0 {
		budget -= base // the input partition occupies part of the budget
		if budget <= 0 {
			// The partition alone fills the budget: degrade to the
			// smallest possible superstep (one read per round) rather
			// than silently dropping the limit.
			budget = 1
		}
	}
	for {
		tStep := tb.Now()
		end := next
		var planned int64
		// Plan the chunk from the replicated length vector, never from the
		// remote reads themselves — residency forbids sizing a read this
		// rank does not hold. Exact for real/phantom wire sizes; a safe
		// overestimate when the sender packs.
		for end < len(groups) {
			sz := int64(in.planSize(groups[end].read))
			if end > next && budget > 0 && planned+sz > budget {
				break // chunk full; always take at least one read
			}
			planned += sz
			end++
		}
		chunk := groups[next:end]
		out.Supersteps++

		// Round trip 1: request lists (read IDs grouped by owner).
		var reqBytes int64
		sendReq := make([][]byte, r.Size())
		groupOf := make(map[seq.ReadID][]overlap.Task, len(chunk))
		for _, g := range chunk {
			owner := in.Part.Owner(g.read)
			var idb [4]byte
			binary.LittleEndian.PutUint32(idb[:], uint32(g.read))
			sendReq[owner] = append(sendReq[owner], idb[:]...)
			reqBytes += 4
			groupOf[g.read] = store.tasksOf(g)
			out.WireFetches++
		}
		r.Alloc(reqBytes)
		recvReq := r.Alltoallv(sendReq)

		// Round trip 2: aggregated read payloads back to requesters.
		var payBytes int64
		var sendPay [][]byte
		var reqErr error
		r.Timed(rt.CatOverhead, func() {
			sendPay = make([][]byte, r.Size())
			for src, ids := range recvReq {
				if reqErr = checkReadRequest(in, r.Rank(), src, ids); reqErr != nil {
					return
				}
				for off := 0; off < len(ids); off += 4 {
					id := seq.ReadID(binary.LittleEndian.Uint32(ids[off:]))
					sendPay[src] = in.Codec.Encode(sendPay[src], id)
				}
				payBytes += int64(len(sendPay[src]))
			}
		})
		if reqErr != nil {
			return nil, reqErr
		}
		r.Alloc(payBytes)
		recvPay := r.Alltoallv(sendPay)
		r.Free(reqBytes)

		var recvBytes int64
		for _, m := range recvPay {
			recvBytes += int64(len(m))
		}
		r.Alloc(recvBytes)
		out.ExchangeRecvBytes += recvBytes

		// Compute alignments as reads are unpacked from receive buffers. One
		// decode buffer serves the whole unpack: every task of a read runs
		// before the next read is decoded over it, and nothing below this
		// loop retains the sequence.
		for src, buf := range recvPay {
			for len(buf) > 0 {
				read, n, err := in.Codec.DecodeInto(dbuf, buf)
				if err != nil {
					return nil, fmt.Errorf("core: rank %d: bad payload from %d: %v", r.Rank(), src, err)
				}
				if cap(read.Seq) > cap(dbuf) {
					dbuf = read.Seq
				}
				buf = buf[n:]
				tasks, ok := groupOf[read.ID]
				if !ok {
					return nil, fmt.Errorf("core: rank %d: unsolicited read %d from %d", r.Rank(), read.ID, src)
				}
				if cache != nil {
					// Retain an owned copy for later reuse (read.Seq aliases
					// the shared decode buffer), pinned while this group's
					// tasks still reference the read.
					var cp seq.Seq
					if read.Seq != nil {
						cp = read.Seq.Clone()
					}
					cache.Insert(read.ID, cp, int64(in.planSize(read.ID)), 1)
				}
				bt.loadFlat(tasks)
				bt.run(r, in, &cfg, read.ID, read.Seq, true, out, 0)
				if cache != nil {
					cache.Release(read.ID, 1)
				}
			}
		}
		r.Free(payBytes)
		r.Free(recvBytes)
		if ex := reqBytes + payBytes + recvBytes; ex > met.PeakExchange {
			met.PeakExchange = ex
		}

		next = end
		remaining := r.Allreduce(int64(len(groups)-next), rt.OpSum)
		tb.Span(trace.KindSuperstep, tStep, int64(len(chunk)))
		if remaining == 0 {
			break
		}
	}
	// Accumulate (not assign): metrics on a resident world add up across
	// Runs, and job-scoped reporting recovers per-Run counts by Sub-ing
	// snapshots.
	r.Metrics().Supersteps += int64(out.Supersteps)
	return out, nil
}

// checkReadRequest validates the request list ids that rank src sent to
// rank: whole 4-byte read IDs, each inside rank's partition. The bytes come
// from a peer, so a bad list is an error, never a panic in the store or
// the codec.
func checkReadRequest(in *Input, rank, src int, ids []byte) error {
	if len(ids)%4 != 0 {
		return fmt.Errorf("core: rank %d: ragged request list from %d", rank, src)
	}
	lo, hi := in.Part.Range(rank)
	for off := 0; off < len(ids); off += 4 {
		if id := int(binary.LittleEndian.Uint32(ids[off:])); id < lo || id >= hi {
			return fmt.Errorf("core: rank %d: request from %d for read %d outside partition [%d,%d)",
				rank, src, id, lo, hi)
		}
	}
	return nil
}
