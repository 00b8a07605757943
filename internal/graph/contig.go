// Contig generation: walk the unbranched paths of the reduced string
// graph and emit their sequences. A vertex v is *mergeable* — absorbed
// into the middle of a contig — iff it has exactly one predecessor and
// that predecessor has exactly one successor; every non-mergeable vertex
// of a live read starts a walk, which extends while the next vertex is
// mergeable. Each contig therefore materialises twice, once per strand;
// the walk with the lexicographically smaller vertex path is the one that
// emits. Perfect cycles (every vertex mergeable) get a second pass that
// elects the minimum vertex of the cycle as the emitter.
//
// Distribution: out-degrees are local (a rank owns its reads' adjacency)
// and in-degrees are the twin's out-degree, also local — only the
// predecessor's out-degree crosses ranks, pushed to its owner in one
// alltoallv. Walks then follow edges wherever they lead, fetching remote
// vertex records and remote base suffixes through the stage's owner-keyed
// exchange (exchange.go, DESIGN.md §17) in one of two modes: "bsp"
// (default) replays unfinished walks against a growing record cache,
// batching each round's distinct misses into a single alltoallv
// request/response pair — so the fetch traffic rides the hierarchical
// leader-relay path and its tier accounting — and fetches every suffix
// in one batched round; "async" fetches each record and suffix miss as
// the walk meets it with one AsyncCall, coalesced by the same per-run
// caches, exactly like the overlap phase fetches remote reads.
package graph

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// Contig is one assembled sequence: the oriented read it starts with, how
// many reads the walk merged, and the bases.
type Contig struct {
	Start    Vertex
	Reads    int32
	Circular bool
	Seq      seq.Seq
}

// ContigConfig parameterises contig generation.
type ContigConfig struct {
	// MinReads discards contigs assembled from fewer reads (0 keeps all,
	// including unassembled singleton reads).
	MinReads int
	// Mode selects the remote-record strategy: "bsp" (default) batches
	// each replay round's distinct misses into one alltoallv pair;
	// "async" issues pull RPCs with a per-run coalescing cache. Both
	// modes produce identical contigs.
	Mode string
	// Model prices the stage on the simulator backend; nil elsewhere.
	Model *CostModel
}

// vrec is the walker's view of one vertex. predOut is the out-degree of
// the sole predecessor, valid only when indeg == 1; succ/succLen are the
// single out-edge, valid only when outdeg == 1.
type vrec struct {
	outdeg, indeg, predOut int32
	succ                   Vertex
	succLen                int32
}

// vrecWire is a vertex record's wire size: outdeg(4) indeg(4) predout(4)
// succ(8) succlen(4).
const vrecWire = 24

// predDeg tells v's owner the out-degree of one of v's predecessors.
type predDeg struct {
	v   Vertex
	out int32
}

var predDegRecord = codec[predDeg]{name: "pred-degree", size: 12,
	put: func(dst []byte, d predDeg) []byte {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(d.v))
		return binary.LittleEndian.AppendUint32(dst, uint32(d.out))
	},
	get: func(src []byte) predDeg {
		return predDeg{Vertex(binary.LittleEndian.Uint64(src)), int32(binary.LittleEndian.Uint32(src[8:]))}
	},
	vertex: func(d predDeg) Vertex { return d.v },
}

// sufKey identifies one oriented suffix fetch: the vertex and how many
// trailing bases its walk appends.
type sufKey struct {
	v    Vertex
	take int32
}

func (k sufKey) compare(o sufKey) int {
	if c := cmp.Compare(k.v, o.v); c != 0 {
		return c
	}
	return cmp.Compare(k.take, o.take)
}

var sufKeyCodec = codec[sufKey]{name: "suffix key", size: 12,
	put: func(dst []byte, k sufKey) []byte {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(k.v))
		return binary.LittleEndian.AppendUint32(dst, uint32(k.take))
	},
	get: func(src []byte) sufKey {
		return sufKey{Vertex(binary.LittleEndian.Uint64(src)), int32(binary.LittleEndian.Uint32(src[8:]))}
	},
	vertex: func(k sufKey) Vertex { return k.v },
}

// contiger holds one rank's state for the walk phase.
type contiger struct {
	r     rt.Runtime
	g     *Graph
	store seq.Store
	x     *exchange
	// predOut[v] for local v with indeg(v) == 1: the predecessor's
	// out-degree (from the exchange round).
	predOut map[Vertex]int32
	// recCache holds remote vertex records already fetched this run —
	// the bsp replay cache, and the async path's coalescing cache.
	recCache map[Vertex]vrec
	// want collects the current bsp round's record misses (distinct
	// remote vertices to fetch).
	want map[Vertex]bool
	// sufCache holds every suffix the emitted contigs append.
	sufCache map[sufKey]seq.Seq
	recRound *round[Vertex, vrec]
	sufRound *round[sufKey, seq.Seq]
}

func (c *contiger) localRec(v Vertex) vrec {
	rec := vrec{
		outdeg: int32(len(c.g.Adj[v])),
		indeg:  int32(len(c.g.Adj[v.Twin()])),
	}
	if rec.outdeg == 1 {
		e := c.g.Adj[v][0]
		rec.succ, rec.succLen = e.To, e.Len
	}
	if rec.indeg == 1 {
		rec.predOut = c.predOut[v]
	}
	return rec
}

// recordRound looks up vertex records: 8-byte vertex keys, vrecWire-byte
// answers.
func (c *contiger) recordRound() *round[Vertex, vrec] {
	return &round[Vertex, vrec]{name: "vertex record", tag: 'v', key: vertexKey, cmp: cmp.Compare[Vertex],
		answer: func(dst []byte, v Vertex) ([]byte, error) {
			rec := c.localRec(v)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.outdeg))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.indeg))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.predOut))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.succ))
			return binary.LittleEndian.AppendUint32(dst, uint32(rec.succLen)), nil
		},
		decode: func(_ Vertex, buf []byte) (vrec, int, error) {
			if len(buf) < vrecWire {
				return vrec{}, 0, errTruncated("vertex record")
			}
			return vrec{
				outdeg:  int32(binary.LittleEndian.Uint32(buf[0:])),
				indeg:   int32(binary.LittleEndian.Uint32(buf[4:])),
				predOut: int32(binary.LittleEndian.Uint32(buf[8:])),
				succ:    Vertex(binary.LittleEndian.Uint64(buf[12:])),
				succLen: int32(binary.LittleEndian.Uint32(buf[20:])),
			}, vrecWire, nil
		},
	}
}

// suffixRound looks up oriented suffixes: 12-byte (vertex, take) keys; an
// answer is a uint32 length, then that many bases.
func (c *contiger) suffixRound() *round[sufKey, seq.Seq] {
	return &round[sufKey, seq.Seq]{name: "suffix", tag: 'b', key: sufKeyCodec, cmp: sufKey.compare,
		answer: func(dst []byte, k sufKey) ([]byte, error) {
			if k.take < 0 {
				return nil, fmt.Errorf("graph: suffix of %d bases requested for %v", k.take, k.v)
			}
			s := orientedSuffix(c.store.Get(k.v.Read()).Seq, k.v.Rev(), k.take)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			for _, b := range s {
				dst = append(dst, byte(b))
			}
			return dst, nil
		},
		decode: func(_ sufKey, buf []byte) (seq.Seq, int, error) {
			if len(buf) < 4 {
				return nil, 0, errTruncated("suffix")
			}
			n := binary.LittleEndian.Uint32(buf)
			if uint64(len(buf)-4) < uint64(n) {
				return nil, 0, errTruncated("suffix")
			}
			s := make(seq.Seq, n)
			for i := range s {
				s[i] = seq.Base(buf[4+i])
			}
			return s, 4 + int(n), nil
		},
	}
}

// orientedSuffix returns the last take bases (take ≥ 0) of the vertex's
// oriented sequence: the forward read's tail, or for a reverse vertex the
// reverse complement of the read's head.
func orientedSuffix(rd seq.Seq, rev bool, take int32) seq.Seq {
	if int(take) > len(rd) {
		take = int32(len(rd))
	}
	if !rev {
		out := make(seq.Seq, take)
		copy(out, rd[len(rd)-int(take):])
		return out
	}
	return rd[:take].ReverseComplement()
}

// record resolves v's vertex record: locally, from the run's cache or
// over the wire. Under async a miss is fetched at once; under bsp it is
// noted in want for the next replay round and reported as not done.
func (c *contiger) record(v Vertex) (vrec, bool, error) {
	if c.g.Part.Owner(v.Read()) == c.r.Rank() {
		return c.localRec(v), true, nil
	}
	if c.x.async {
		err := fetch(c.x, c.recRound, []Vertex{v}, c.recCache)
		return c.recCache[v], err == nil, err
	}
	if rec, ok := recall(c.r, c.recCache, v); ok {
		return rec, true, nil
	}
	c.want[v] = true
	return vrec{}, false, nil
}

// mergeable: v continues its predecessor's contig rather than starting
// its own.
func mergeable(rec vrec) bool { return rec.indeg == 1 && rec.predOut == 1 }

// pathKey compares a walk against its twin walk: the contig is emitted by
// whichever strand reads lexicographically smaller as a vertex sequence.
// The twin of path v0..vk is twin(vk)..twin(v0).
func pathLessOrEqualTwin(path []Vertex) bool {
	n := len(path)
	for i := 0; i < n; i++ {
		t := path[n-1-i].Twin()
		if path[i] != t {
			return path[i] < t
		}
	}
	return true // self-twin (palindromic): single emitter anyway
}

// pendContig is a finished walk awaiting sequence assembly.
type pendContig struct {
	path     []Vertex
	lens     []int32
	circular bool
}

// tryLinear attempts the linear walk from v0. done=false means a remote
// record was unavailable (bsp: the miss is noted in want and the walk
// replays next round); otherwise pend is the finished walk, nil when v0
// does not emit.
func (c *contiger) tryLinear(v0 Vertex, maxSteps, minReads int) (pend *pendContig, done bool, err error) {
	rec0 := c.localRec(v0)
	if mergeable(rec0) {
		return nil, true, nil // interior of some other walk
	}
	path := []Vertex{v0}
	lens := []int32{} // appended bases per extension
	cur := rec0
	for cur.outdeg == 1 && len(path) < maxSteps {
		w, l := cur.succ, cur.succLen
		wrec, ok, err := c.record(w)
		if !ok {
			return nil, err != nil, err
		}
		// Given cur's out-degree is 1, w merges iff its in-degree is 1.
		if wrec.indeg != 1 {
			break
		}
		path = append(path, w)
		lens = append(lens, l)
		cur = wrec
	}
	if len(path) >= maxSteps {
		return nil, true, fmt.Errorf("graph: walk from %v exceeded %d steps; graph is inconsistent", v0, maxSteps)
	}
	if len(path) < minReads || !pathLessOrEqualTwin(path) {
		return nil, true, nil
	}
	return &pendContig{path: path, lens: lens}, true, nil
}

// tryCycle attempts the pure-cycle walk from v0: components where every
// vertex is mergeable that no linear walk enters. The minimum vertex of
// the cycle emits; walks from larger vertices abort on first sight of a
// smaller one, and the twin cycle is suppressed by the same ≤ rule.
func (c *contiger) tryCycle(v0 Vertex, maxSteps int) (pend *pendContig, done bool, err error) {
	rec0 := c.localRec(v0)
	if !mergeable(rec0) || rec0.outdeg != 1 {
		return nil, true, nil
	}
	path := []Vertex{v0}
	lens := []int32{}
	minTwin := v0.Twin()
	cur := rec0
	closed := false
	for len(path) < maxSteps {
		w, l := cur.succ, cur.succLen
		if w == v0 {
			closed = true
			break
		}
		if w < v0 {
			break // a smaller cycle vertex will emit
		}
		wrec, ok, err := c.record(w)
		if !ok {
			return nil, err != nil, err
		}
		if !mergeable(wrec) || wrec.outdeg != 1 {
			break // not a pure cycle: the linear pass covers it
		}
		path = append(path, w)
		lens = append(lens, l)
		if t := w.Twin(); t < minTwin {
			minTwin = t
		}
		cur = wrec
	}
	if len(path) >= maxSteps {
		return nil, true, fmt.Errorf("graph: cycle walk from %v exceeded %d steps", v0, maxSteps)
	}
	if !closed || v0 > minTwin {
		return nil, true, nil
	}
	return &pendContig{path: path, lens: lens, circular: true}, true, nil
}

// walk runs one walk phase from every start. Under async each record
// miss is fetched as the walk meets it, so one pass finishes every walk.
// Under bsp the phase replays unfinished starts against the record cache,
// allreduces the global miss count and fetches each round's distinct
// misses in one alltoallv pair — one superstep per round — until no rank
// misses. A rank whose walk fails keeps serving rounds (the collectives
// must stay matched across ranks) and surfaces the error after the phase
// drains.
func (c *contiger) walk(starts []Vertex, attempt func(Vertex) (*pendContig, bool, error)) ([]*pendContig, error) {
	r := c.r
	var pends []*pendContig
	var walkErr error
	pending := starts
	for {
		var next []Vertex
		for _, v0 := range pending {
			pc, done, err := attempt(v0)
			if err != nil {
				walkErr = err
				break
			}
			if !done {
				next = append(next, v0)
				continue
			}
			if pc != nil {
				pends = append(pends, pc)
			}
		}
		pending = next
		if walkErr != nil {
			pends, pending = nil, nil
			clear(c.want)
		}
		if c.x.async || r.Allreduce(int64(len(c.want)), rt.OpSum) == 0 {
			return pends, walkErr
		}
		keys := make([]Vertex, 0, len(c.want))
		for v := range c.want {
			keys = append(keys, v)
		}
		clear(c.want)
		r.Metrics().Supersteps++
		if err := fetch(c.x, c.recRound, keys, c.recCache); err != nil && walkErr == nil {
			walkErr, pends, pending = err, nil, nil
		}
	}
}

// fetchSuffixes fetches every suffix the pending contigs append. Under
// bsp they cross in one batched round, coalesced across all walks — one
// superstep; collective, so ranks with nothing pending still serve. Under
// async each miss is fetched in emission order.
func (c *contiger) fetchSuffixes(pends []*pendContig) error {
	var keys []sufKey
	for _, pc := range pends {
		for i, l := range pc.lens {
			keys = append(keys, sufKey{pc.path[i+1], l})
		}
	}
	if !c.x.async {
		c.r.Metrics().Supersteps++
		return fetch(c.x, c.sufRound, keys, c.sufCache)
	}
	for i := range keys {
		if err := fetch(c.x, c.sufRound, keys[i:i+1], c.sufCache); err != nil {
			return err
		}
	}
	return nil
}

// Contigs walks this rank's share of the reduced graph. Collective.
// Contig sequences are assembled on the rank owning the starting vertex;
// GatherContigs concatenates them on rank 0 in canonical order. The
// result is a pure function of the global graph — mode, rank count and
// placement never change which contigs emerge.
func Contigs(r rt.Runtime, g *Graph, store seq.Store, cfg ContigConfig) ([]Contig, error) {
	m, err := parseMode(cfg.Mode)
	if err != nil {
		return nil, err
	}
	maxSteps := 2*len(g.Lens) + 2 // any simple oriented path is shorter
	c := &contiger{r: r, g: g, store: store,
		predOut:  make(map[Vertex]int32),
		recCache: make(map[Vertex]vrec),
		want:     make(map[Vertex]bool),
		sufCache: make(map[sufKey]seq.Seq)}

	// Exchange round: every edge (w→x) tells x's owner w's out-degree, so
	// owners know predOut for their indeg-1 vertices.
	var degs []predDeg
	for _, es := range g.Adj {
		for _, e := range es {
			degs = append(degs, predDeg{e.To, int32(len(es))})
		}
	}
	got, pushErr := push(r, g.Part, predDegRecord, degs)
	for _, d := range got {
		// Only consulted when indeg(v) == 1 (unique record); keep the max
		// so duplicates cannot make the value order-dependent.
		if cur, ok := c.predOut[d.v]; !ok || d.out > cur {
			c.predOut[d.v] = d.out
		}
	}

	// Walk phase. Every non-contained local read starts a walk in both
	// orientations; the attempt functions decide which starts emit. A rank
	// that has already failed walks nothing but still serves its peers.
	var starts []Vertex
	if pushErr == nil {
		lo, hi := g.Part.Range(r.Rank())
		for id := lo; id < hi; id++ {
			if !g.Contained[id] {
				starts = append(starts, V(seq.ReadID(id), false), V(seq.ReadID(id), true))
			}
		}
	}
	c.recRound, c.sufRound = c.recordRound(), c.suffixRound()
	c.x = openExchange(r, g.Part, m, c.recRound, c.sufRound)
	pends, linErr := c.walk(starts, func(v0 Vertex) (*pendContig, bool, error) {
		return c.tryLinear(v0, maxSteps, cfg.MinReads)
	})
	if linErr != nil {
		starts = nil
	}
	cyc, cycErr := c.walk(starts, func(v0 Vertex) (*pendContig, bool, error) {
		return c.tryCycle(v0, maxSteps)
	})
	walkErr := errors.Join(pushErr, linErr, cycErr)
	if walkErr != nil {
		pends, cyc = nil, nil
	}
	pends = append(pends, cyc...)
	sufErr := c.fetchSuffixes(pends)
	if err := errors.Join(walkErr, sufErr, c.x.close()); err != nil {
		return nil, err
	}
	var contigs []Contig
	for _, pc := range pends {
		ct, err := c.emit(pc)
		if err != nil {
			return nil, err
		}
		contigs = append(contigs, ct)
	}
	sort.Slice(contigs, func(i, j int) bool { return contigs[i].Start < contigs[j].Start })
	total := 0
	for _, ct := range contigs {
		total += len(ct.Seq)
	}
	cfg.Model.charge(r, rt.CatOverhead, cfg.Model.perBase(), total)
	return contigs, nil
}

// emit assembles the sequence of a finished walk: the full oriented first
// read, then each extension's appended suffix.
func (c *contiger) emit(pc *pendContig) (Contig, error) {
	v0 := pc.path[0]
	first := orientedSeq(c.store.Get(v0.Read()).Seq, v0.Rev())
	out := make(seq.Seq, 0, len(first)+sum32(pc.lens))
	out = append(out, first...)
	for i, l := range pc.lens {
		s, ok := c.sufCache[sufKey{pc.path[i+1], l}]
		if !ok {
			return Contig{}, fmt.Errorf("graph: suffix %v/%d missing from the suffix round", pc.path[i+1], l)
		}
		out = append(out, s...)
	}
	return Contig{Start: v0, Reads: int32(len(pc.path)), Circular: pc.circular, Seq: out}, nil
}

func orientedSeq(s seq.Seq, rev bool) seq.Seq {
	if !rev {
		return s
	}
	return s.ReverseComplement()
}

func sum32(xs []int32) int {
	t := 0
	for _, x := range xs {
		t += int(x)
	}
	return t
}

// contigWire encodes one contig: Start(8) Reads(4) Circular(1) SeqLen(4) + bases.
func encodeContigs(cs []Contig) []byte {
	var buf []byte
	for _, ct := range cs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ct.Start))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ct.Reads))
		if ct.Circular {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ct.Seq)))
		for _, b := range ct.Seq {
			buf = append(buf, byte(b))
		}
	}
	return buf
}

func decodeContigs(buf []byte) ([]Contig, error) {
	var out []Contig
	off := 0
	for off < len(buf) {
		if off+17 > len(buf) {
			return nil, fmt.Errorf("graph: truncated contig header")
		}
		ct := Contig{
			Start:    Vertex(binary.LittleEndian.Uint64(buf[off:])),
			Reads:    int32(binary.LittleEndian.Uint32(buf[off+8:])),
			Circular: buf[off+12] == 1,
		}
		n := int(binary.LittleEndian.Uint32(buf[off+13:]))
		off += 17
		if off+n > len(buf) {
			return nil, fmt.Errorf("graph: truncated contig bases")
		}
		ct.Seq = make(seq.Seq, n)
		for i := 0; i < n; i++ {
			ct.Seq[i] = seq.Base(buf[off+i])
		}
		off += n
		out = append(out, ct)
	}
	return out, nil
}

// GatherContigs collects every rank's contigs onto rank 0 in canonical
// (Start vertex) order; other ranks return nil. Start vertices are unique
// across ranks, so the gathered order — and any FASTA rendered from it —
// is independent of the rank count.
func GatherContigs(r rt.Runtime, local []Contig) ([]Contig, error) {
	send := make([][]byte, r.Size())
	send[0] = encodeContigs(local)
	recv := r.Alltoallv(send)
	if r.Rank() != 0 {
		return nil, nil
	}
	var all []Contig
	for src := 0; src < r.Size(); src++ {
		cs, err := decodeContigs(recv[src])
		if err != nil {
			return nil, fmt.Errorf("graph: gather from rank %d: %w", src, err)
		}
		all = append(all, cs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all, nil
}

// WriteContigFASTA renders gathered contigs with deterministic names:
// contig00001 etc. in canonical order, with read count, length and
// circularity in the description. 80-column wrapping.
func WriteContigFASTA(w io.Writer, cs []Contig) error {
	for i, ct := range cs {
		circ := ""
		if ct.Circular {
			circ = " circular"
		}
		if _, err := fmt.Fprintf(w, ">contig%05d reads=%d len=%d start=%s%s\n",
			i+1, ct.Reads, len(ct.Seq), ct.Start, circ); err != nil {
			return err
		}
		s := ct.Seq.String()
		for len(s) > 0 {
			n := 80
			if n > len(s) {
				n = len(s)
			}
			if _, err := fmt.Fprintf(w, "%s\n", s[:n]); err != nil {
				return err
			}
			s = s[n:]
		}
	}
	return nil
}
