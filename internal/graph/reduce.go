// Transitive reduction: drop every edge u→x that a two-edge path
// u→w→x explains (|ℓ(u→w)+ℓ(w→x)−ℓ(u→x)| ≤ fuzz — edge labels are
// appended-base counts, so composition is additive up to alignment
// noise). The predicate is evaluated on the *original* graph for every
// edge independently — no iteration order, hence a deterministic result —
// and removal is symmetrized across twin pairs so the walk invariant
// indeg(v) == outdeg(twin(v)) survives even where duplicate-overlap
// dedup picked twin labels from different alignments.
//
// Distribution: a rank can test its own edge u→x once it sees the
// out-adjacency of every middle vertex w it points at. Those neighbour
// lists are the only remote state, fetched in one owner-keyed round
// (exchange.go): one alltoallv request/response pair (bsp mode) or one
// AsyncCall per owner (async mode) — the same two coordination
// strategies the overlap phase offers, which is exactly what makes the
// stage a drop-in for the scaling experiments. The twin marks then reach
// their owners in one push.
package graph

import (
	"cmp"
	"encoding/binary"
	"errors"

	"gnbody/internal/rt"
)

// ReduceConfig parameterises transitive reduction.
type ReduceConfig struct {
	// Fuzz is the tolerated length slack (bases) when testing whether a
	// two-edge path explains an edge. 0 demands exact additivity
	// (error-free reads); noisy data wants ~overlap-slack magnitude.
	Fuzz int
	// Mode selects the neighbour-fetch strategy: "bsp" (default, one
	// alltoallv round-trip) or "async" (RPC per owner).
	Mode string
	// Model prices the stage on the simulator backend; nil elsewhere.
	Model *CostModel
}

// adjacencyRound looks up out-adjacency: 8-byte vertex keys; an answer
// is a uint32 edge count, then To (8B) and Len (4B) per edge.
func (g *Graph) adjacencyRound() *round[Vertex, []Edge] {
	return &round[Vertex, []Edge]{name: "adjacency", tag: 'a', key: vertexKey, cmp: cmp.Compare[Vertex],
		answer: func(dst []byte, v Vertex) ([]byte, error) {
			es := g.Adj[v]
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(es)))
			for _, e := range es {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(e.To))
				dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Len))
			}
			return dst, nil
		},
		decode: func(v Vertex, buf []byte) ([]Edge, int, error) {
			if len(buf) < 4 {
				return nil, 0, errTruncated("adjacency")
			}
			n := int(binary.LittleEndian.Uint32(buf))
			if (len(buf)-4)/12 < n {
				return nil, 0, errTruncated("adjacency")
			}
			es := make([]Edge, n)
			for i := range es {
				off := 4 + 12*i
				es[i] = Edge{From: v,
					To:  Vertex(binary.LittleEndian.Uint64(buf[off:])),
					Len: int32(binary.LittleEndian.Uint32(buf[off+8:]))}
			}
			return es, 4 + 12*n, nil
		},
	}
}

// twinMark names an edge whose removal its twin's owner must mirror.
var twinMark = codec[[2]Vertex]{name: "twin mark", size: 16,
	put: func(dst []byte, m [2]Vertex) []byte {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m[0]))
		return binary.LittleEndian.AppendUint64(dst, uint64(m[1]))
	},
	get: func(src []byte) [2]Vertex {
		return [2]Vertex{Vertex(binary.LittleEndian.Uint64(src)), Vertex(binary.LittleEndian.Uint64(src[8:]))}
	},
	vertex: func(m [2]Vertex) Vertex { return m[0] },
}

// Reduce returns the transitively reduced graph. Collective; g is not
// modified. The output on every rank is a pure function of the global
// input graph — mode and rank count never change which edges survive.
func Reduce(r rt.Runtime, g *Graph, cfg ReduceConfig) (*Graph, error) {
	m, err := parseMode(cfg.Mode)
	if err != nil {
		return nil, err
	}
	// The middle vertices this rank needs: every To of a local edge.
	var mids []Vertex
	r.Timed(rt.CatOverhead, func() {
		for _, es := range g.Adj {
			for _, e := range es {
				mids = append(mids, e.To)
			}
		}
	})
	adj := g.adjacencyRound()
	x := openExchange(r, g.Part, m, adj)
	neigh := make(map[Vertex][]Edge)
	fetchErr := errors.Join(fetch(x, adj, mids, neigh), x.close())

	// Mark local reducible edges. A rank whose fetch failed still marks
	// and joins the symmetrization round below, so the collectives stay
	// matched, and reports the error after it.
	local := g.EdgeList()
	idx := make(map[[2]Vertex]int, len(local))
	for i, e := range local {
		idx[[2]Vertex{e.From, e.To}] = i
	}
	marked := make([]bool, len(local))
	pairs := 0
	r.Timed(rt.CatOverhead, func() {
		for _, e1 := range local { // u→w
			for _, e2 := range neigh[e1.To] { // w→x
				pairs++
				if e2.To == e1.From {
					continue
				}
				i, ok := idx[[2]Vertex{e1.From, e2.To}]
				if !ok {
					continue
				}
				d := e1.Len + e2.Len - local[i].Len
				if d < 0 {
					d = -d
				}
				if d <= int32(cfg.Fuzz) {
					marked[i] = true
				}
			}
		}
	})
	cfg.Model.charge(r, rt.CatOverhead, cfg.Model.perPair(), pairs)

	// Symmetrize removal: tell the twin's owner about every mark, so twin
	// pairs always live or die together (duplicate-overlap dedup can give
	// the two directions different labels, and the contig walk depends on
	// indeg(v) == outdeg(twin(v)) holding exactly).
	var marks [][2]Vertex
	for i, e := range local {
		if marked[i] {
			marks = append(marks, [2]Vertex{e.To.Twin(), e.From.Twin()})
		}
	}
	got, pushErr := push(r, g.Part, twinMark, marks)
	if err := errors.Join(fetchErr, pushErr); err != nil {
		return nil, err
	}
	for _, mk := range got {
		if i, ok := idx[mk]; ok {
			marked[i] = true
		}
	}

	out := &Graph{Part: g.Part, Lens: g.Lens, Contained: g.Contained, Adj: make(map[Vertex][]Edge)}
	r.Timed(rt.CatOverhead, func() {
		for i, e := range local {
			if marked[i] {
				continue
			}
			out.Adj[e.From] = append(out.Adj[e.From], e)
			out.NumEdges++
		}
	})
	return out, nil
}

// ReduceOracle is the brute-force serial reference: test every edge
// against every possible two-edge explanation, then symmetrize. Quadratic
// in the edge count — test-only, the property tests pit Reduce against it
// on random graphs.
func ReduceOracle(edges []Edge, fuzz int) []Edge {
	es := make([]Edge, len(edges))
	copy(es, edges)
	SortEdges(es)
	es = dedupEdges(es)
	idx := make(map[[2]Vertex]int, len(es))
	for i, e := range es {
		idx[[2]Vertex{e.From, e.To}] = i
	}
	marked := make([]bool, len(es))
	for i, e := range es { // shortcut candidate u→x
		for _, f := range es { // u→w
			if f.From != e.From || f.To == e.To || f.To == e.From {
				continue
			}
			k, ok := idx[[2]Vertex{f.To, e.To}] // w→x
			if !ok {
				continue
			}
			d := f.Len + es[k].Len - e.Len
			if d < 0 {
				d = -d
			}
			if d <= int32(fuzz) {
				marked[i] = true
				break
			}
		}
	}
	for i, e := range es {
		if !marked[i] {
			continue
		}
		if k, ok := idx[[2]Vertex{e.To.Twin(), e.From.Twin()}]; ok {
			marked[k] = true
		}
	}
	var out []Edge
	for i, e := range es {
		if !marked[i] {
			out = append(out, e)
		}
	}
	return out
}
