// Package graph builds the assembly string graph from the overlap phase's
// hit set and carries it through transitive reduction to contigs — the
// follow-on passes of the DiBELLA pipeline (Guidi et al., arXiv 2010.10055
// and 2207.04350) expressed as SPMD stages on the same rt.Runtime the
// overlap drivers use.
//
// The graph is bidirected in the Myers string-graph sense, flattened onto
// oriented vertices: every read r contributes two vertices (r,+) and
// (r,−), and every proper dovetail overlap contributes one edge and its
// twin — edge u→v coexists with twin(v)→twin(u), so a rank that owns a
// read locally knows both the out-adjacency of its vertices and (via the
// twin) their in-degrees. Vertices are partitioned by read owner, exactly
// like the reads themselves, so the graph inherits the pipeline's
// owner-only residency story: a rank holds the adjacency of its own reads
// and nothing else, and remote adjacency moves through the same
// alltoallv/RPC primitives as remote bases do in the overlap phase.
package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// Vertex is an oriented read: read id in the high bits, orientation in
// bit 0 (0 = forward, 1 = reverse complement).
type Vertex uint64

// V makes the vertex for read id in the given orientation.
func V(id seq.ReadID, rev bool) Vertex {
	v := Vertex(id) << 1
	if rev {
		v |= 1
	}
	return v
}

// Read returns the vertex's read.
func (v Vertex) Read() seq.ReadID { return seq.ReadID(v >> 1) }

// Rev reports whether the vertex is the read's reverse complement.
func (v Vertex) Rev() bool { return v&1 == 1 }

// Twin returns the same read in the opposite orientation.
func (v Vertex) Twin() Vertex { return v ^ 1 }

// String renders "id+" / "id-".
func (v Vertex) String() string {
	s := "+"
	if v.Rev() {
		s = "-"
	}
	return fmt.Sprintf("%d%s", v.Read(), s)
}

// Edge u→w means: walking a contig that currently ends with oriented read
// u, oriented read w continues it, appending its last Len bases (the part
// of w sticking out past u). Edges always come in twin pairs — u→w
// coexists with twin(w)→twin(u), generally with a different Len (the
// overhang at the other end of the overlap).
type Edge struct {
	From, To Vertex
	Len      int32
}

// edgeWire is the fixed wire size of one edge record: From, To (8B), Len (4B).
const edgeWire = 20

func appendEdge(dst []byte, e Edge) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.From))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.To))
	return binary.LittleEndian.AppendUint32(dst, uint32(e.Len))
}

func getEdge(src []byte) Edge {
	return Edge{
		From: Vertex(binary.LittleEndian.Uint64(src)),
		To:   Vertex(binary.LittleEndian.Uint64(src[8:])),
		Len:  int32(binary.LittleEndian.Uint32(src[16:])),
	}
}

// edgeRecord routes an edge to the owner of its From vertex.
var edgeRecord = codec[Edge]{name: "edge", size: edgeWire, put: appendEdge, get: getEdge,
	vertex: func(e Edge) Vertex { return e.From }}

func decodeEdges(buf []byte) ([]Edge, error) {
	if len(buf)%edgeWire != 0 {
		return nil, fmt.Errorf("graph: edge payload of %d bytes is not a multiple of %d", len(buf), edgeWire)
	}
	out := make([]Edge, 0, len(buf)/edgeWire)
	for off := 0; off < len(buf); off += edgeWire {
		out = append(out, getEdge(buf[off:]))
	}
	return out, nil
}

// SortEdges orders edges canonically: (From, To, Len).
func SortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		if es[i].To != es[j].To {
			return es[i].To < es[j].To
		}
		return es[i].Len < es[j].Len
	})
}

// dedupEdges collapses duplicate (From, To) pairs in a sorted edge list,
// keeping the smallest Len (the tightest overlap wins, deterministically).
func dedupEdges(es []Edge) []Edge {
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].From == e.From && out[n-1].To == e.To {
			continue // sorted by Len within the pair: the keeper came first
		}
		out = append(out, e)
	}
	return out
}

// Graph is one rank's partition of the string graph: the out-adjacency of
// every vertex whose read this rank owns, plus the (replicated, small)
// containment verdicts. Adjacency lists are sorted canonically.
type Graph struct {
	Part *partition.Partition
	Lens []int32

	// Adj maps each local vertex to its sorted out-edges. Vertices with no
	// out-edges are absent.
	Adj map[Vertex][]Edge

	// Contained marks reads removed from the graph because an alignment
	// covers them end to end; replicated on every rank (the same O(n)
	// exception as the length vector).
	Contained []bool

	// NumEdges is this rank's live (local) edge count.
	NumEdges int
}

// Verdict classifies one hit for graph construction.
type Verdict int

// Hit verdicts.
const (
	// VerdictInternal: the alignment reaches neither end of either read —
	// a false-positive candidate; contributes nothing.
	VerdictInternal Verdict = iota
	// VerdictContainA: read A is covered end to end; A leaves the graph.
	VerdictContainA
	// VerdictContainB: read B is covered end to end; B leaves the graph.
	VerdictContainB
	// VerdictDovetail: a proper suffix-prefix overlap; contributes an edge
	// and its twin.
	VerdictDovetail
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictContainA:
		return "contain-a"
	case VerdictContainB:
		return "contain-b"
	case VerdictDovetail:
		return "dovetail"
	}
	return "internal"
}

// ClassifyHit interprets one saved alignment as string-graph material.
// The hit must be canonical (A < B, as core.CanonicalizeHits produces).
// slack tolerates unaligned overhang at each read end (sequencing errors
// rarely let the extension reach the last base); minOverlap discards
// alignments whose span on either read is shorter. For VerdictDovetail
// the returned pair is the edge and its twin; both Lens are strictly
// positive (a zero overhang means containment and is classified as such).
func ClassifyHit(h core.Hit, lenA, lenB int32, slack, minOverlap int) (Verdict, [2]Edge) {
	var none [2]Edge
	if h.AEnd-h.AStart < int32(minOverlap) || h.BEnd-h.BStart < int32(minOverlap) {
		return VerdictInternal, none
	}
	// Guard malformed extents (fuzzed or foreign hits): anything outside
	// the read bounds is not interpretable as an overlap.
	if h.AStart < 0 || h.BStart < 0 || h.AEnd > lenA || h.BEnd > lenB ||
		h.AStart >= h.AEnd || h.BStart >= h.BEnd {
		return VerdictInternal, none
	}
	// Mutual containment (both reads covered end to end within slack) is
	// ambiguous — overlap.Classify reports whichever case it tests first.
	// Break the tie by length (the shorter read is the contained one),
	// then by id, so the verdict never depends on which side of the
	// symmetric record the classifier saw.
	s := int32(slack)
	aCov := h.AStart <= s && h.AEnd >= lenA-s
	bCov := h.BStart <= s && h.BEnd >= lenB-s
	if aCov && bCov {
		if lenA < lenB || (lenA == lenB && h.A > h.B) {
			return VerdictContainA, none
		}
		return VerdictContainB, none
	}
	res := align.Result{Score: int(h.Score),
		AStart: int(h.AStart), AEnd: int(h.AEnd),
		BStart: int(h.BStart), BEnd: int(h.BEnd)}
	switch overlap.Classify(res, int(lenA), int(lenB), slack) {
	case overlap.ContainsB:
		return VerdictContainB, none
	case overlap.ContainedInB:
		return VerdictContainA, none
	case overlap.SuffixPrefix:
		// A precedes oriented B. When the hit is opposite-strand the B
		// extents already live on revcomp(B), so the oriented vertex is
		// (B, reverse).
		if lenB-h.BEnd <= 0 {
			return VerdictContainB, none // B adds nothing past A
		}
		if h.AStart <= 0 {
			return VerdictContainA, none // all of A is inside oriented B
		}
		return VerdictDovetail, [2]Edge{
			{From: V(h.A, false), To: V(h.B, h.RC), Len: lenB - h.BEnd},
			{From: V(h.B, !h.RC), To: V(h.A, true), Len: h.AStart},
		}
	case overlap.PrefixSuffix:
		// Oriented B precedes A.
		if lenA-h.AEnd <= 0 {
			return VerdictContainA, none
		}
		if h.BStart <= 0 {
			return VerdictContainB, none
		}
		return VerdictDovetail, [2]Edge{
			{From: V(h.B, h.RC), To: V(h.A, false), Len: lenA - h.AEnd},
			{From: V(h.A, true), To: V(h.B, !h.RC), Len: h.BStart},
		}
	}
	return VerdictInternal, none
}

// adjFromEdges builds the sorted, deduplicated adjacency map of an edge
// list, returning the live edge count.
func adjFromEdges(edges []Edge) (map[Vertex][]Edge, int) {
	SortEdges(edges)
	edges = dedupEdges(edges)
	adj := make(map[Vertex][]Edge)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e)
	}
	return adj, len(edges)
}

// EdgeList flattens the graph's local adjacency back into a sorted slice.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.NumEdges)
	for _, es := range g.Adj {
		out = append(out, es...)
	}
	SortEdges(out)
	return out
}

// ContainedIDs lists the contained reads in id order.
func (g *Graph) ContainedIDs() []seq.ReadID {
	var out []seq.ReadID
	for id, c := range g.Contained {
		if c {
			out = append(out, seq.ReadID(id))
		}
	}
	return out
}

// GatherEdges collects every rank's local edge list on rank 0, canonically
// sorted; other ranks return nil. Collective — every rank calls it with its
// own EdgeList. With owner-partitioned edges the union is exactly the
// global edge set, so the result is independent of how the graph was
// distributed.
func GatherEdges(r rt.Runtime, local []Edge) ([]Edge, error) {
	send := make([][]byte, r.Size())
	buf := make([]byte, 0, len(local)*edgeWire)
	for _, e := range local {
		buf = appendEdge(buf, e)
	}
	send[0] = buf
	recv := r.Alltoallv(send)
	if r.Rank() != 0 {
		return nil, nil
	}
	var out []Edge
	for rk, b := range recv {
		es, err := decodeEdges(b)
		if err != nil {
			return nil, fmt.Errorf("graph: gather from rank %d: %w", rk, err)
		}
		out = append(out, es...)
	}
	SortEdges(out)
	return out, nil
}

// WriteEdgeTSV renders an edge list as TSV: one "# contained <name>" line
// per removed read, then one "from\tfdir\tto\ttdir\tlen" line per edge.
// With a canonical (sorted, gathered) edge list the output is
// byte-identical across backends — the conformance battery compares runs
// at exactly this level.
func WriteEdgeTSV(w io.Writer, edges []Edge, contained []bool, name func(seq.ReadID) string) error {
	dir := func(v Vertex) string {
		if v.Rev() {
			return "-"
		}
		return "+"
	}
	for id, c := range contained {
		if !c {
			continue
		}
		if _, err := fmt.Fprintf(w, "# contained\t%s\n", name(seq.ReadID(id))); err != nil {
			return err
		}
	}
	for _, e := range edges {
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\n",
			name(e.From.Read()), dir(e.From), name(e.To.Read()), dir(e.To), e.Len); err != nil {
			return err
		}
	}
	return nil
}
