package graph

import (
	"bytes"
	"encoding/binary"
	"testing"

	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// roundFixture is the owner side of every fetch round on rank 1 of a
// 3-rank world over 6 reads of 20 bases: rank 1 owns reads 2 and 3.
type roundFixture struct {
	x   *exchange
	adj *round[Vertex, []Edge]
	rec *round[Vertex, vrec]
	suf *round[sufKey, seq.Seq]
}

func newRoundFixture(tb testing.TB) *roundFixture {
	tb.Helper()
	const n, readLen = 6, 20
	seqs := make([]seq.Seq, n)
	lens := make([]int32, n)
	lensInt := make([]int, n)
	for i := range seqs {
		seqs[i] = make(seq.Seq, readLen)
		for j := range seqs[i] {
			seqs[i][j] = seq.Base((i + j) % 4)
		}
		lens[i], lensInt[i] = readLen, readLen
	}
	pt, err := partition.BySize(lensInt, 3)
	if err != nil {
		tb.Fatal(err)
	}
	if lo, hi := pt.Range(1); lo != 2 || hi != 4 {
		tb.Fatalf("rank 1 owns reads [%d,%d), want [2,4)", lo, hi)
	}
	st, err := seq.NewSliceStore(2, seq.NewReadSet(seqs).Reads[2:4], lens)
	if err != nil {
		tb.Fatal(err)
	}
	g := &Graph{Part: pt, Lens: lens, Contained: make([]bool, n), Adj: map[Vertex][]Edge{
		V(2, false): {{From: V(2, false), To: V(3, false), Len: 5}, {From: V(2, false), To: V(4, true), Len: 9}},
		V(3, true):  {{From: V(3, true), To: V(2, true), Len: 7}},
	}}
	c := &contiger{g: g, store: st, predOut: map[Vertex]int32{V(3, false): 2}}
	f := &roundFixture{adj: g.adjacencyRound(), rec: c.recordRound(), suf: c.suffixRound()}
	f.x = &exchange{part: pt, me: 1, rounds: map[byte]server{f.adj.tag: f.adj, f.rec.tag: f.rec, f.suf.tag: f.suf}}
	return f
}

// request frames an async request: a round tag, then the keys.
func request[K comparable, V any](rd *round[K, V], keys ...K) []byte {
	req := []byte{rd.tag}
	for _, k := range keys {
		req = rd.key.put(req, k)
	}
	return req
}

// TestGraphRoundRejectsMalformedRequest: every malformed request a peer
// can send is refused with an error by the owner — none panics, and none
// is answered as if it were well-formed.
func TestGraphRoundRejectsMalformedRequest(t *testing.T) {
	f := newRoundFixture(t)
	// A vertex whose read id overflows ReadID but truncates to owned read 2.
	overflow := Vertex(uint64(1)<<33 | uint64(V(2, false)))
	for _, tc := range []struct {
		name string
		req  []byte
	}{
		{"empty", nil},
		{"unknown tag", append([]byte{'z'}, request(f.rec, V(2, false))[1:]...)},
		{"record request under 9 bytes", []byte{f.rec.tag, 1, 2, 3}},
		{"9-byte suffix request", append([]byte{f.suf.tag}, request(f.rec, V(2, false))[1:]...)},
		{"ragged adjacency request", request(f.adj, V(2, false))[:8]},
		{"adjacency for foreign vertex", request(f.adj, V(2, false), V(5, true))},
		{"record for foreign vertex", request(f.rec, V(4, false))},
		{"record past the last read", request(f.rec, V(6, false))},
		{"record for overflowing vertex", request(f.rec, overflow)},
		{"suffix for foreign vertex", request(f.suf, sufKey{V(0, false), 5})},
		{"suffix of negative length", request(f.suf, sufKey{V(2, true), -1})},
	} {
		if resp, err := f.x.dispatch(tc.req); err == nil {
			t.Errorf("%s: request %x answered %x, want an error", tc.name, tc.req, resp)
		}
	}

	// The async handler answers a refused request empty and keeps the
	// first error for the stage's close.
	if resp := f.x.handle(request(f.rec, V(4, false))); len(resp) != 0 {
		t.Errorf("refused request answered %x, want empty", resp)
	}
	if f.x.srvErr == nil {
		t.Error("handler did not record the refused request")
	}

	// Well-formed requests are answered.
	for _, req := range [][]byte{
		request(f.adj, V(2, false), V(3, true)),
		request(f.rec, V(3, false)),
		request(f.suf, sufKey{V(2, true), 5}, sufKey{V(3, false), 100}),
	} {
		if _, err := f.x.dispatch(req); err != nil {
			t.Errorf("request %x refused: %v", req, err)
		}
	}
}

// TestGraphRoundRejectsMalformedResponse: the requester refuses answers
// that are truncated (including the empty answer to a refused request) or
// carry trailing bytes, and decodes well-formed ones to the owner's view.
func TestGraphRoundRejectsMalformedResponse(t *testing.T) {
	f := newRoundFixture(t)
	u32 := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	adjOne := u32(1)
	adjOne = binary.LittleEndian.AppendUint64(adjOne, uint64(V(3, false)))
	adjOne = binary.LittleEndian.AppendUint32(adjOne, 5)
	adj := func(b []byte) error { return f.adj.store([]Vertex{V(2, false)}, b, map[Vertex][]Edge{}) }
	rec := func(b []byte) error { return f.rec.store([]Vertex{V(2, false)}, b, map[Vertex]vrec{}) }
	suf := func(b []byte) error { return f.suf.store([]sufKey{{V(2, false), 3}}, b, map[sufKey]seq.Seq{}) }
	for _, tc := range []struct {
		name  string
		store func([]byte) error
		resp  []byte
	}{
		{"empty adjacency", adj, nil},
		{"adjacency count past the end", adj, append(u32(2), adjOne[4:]...)},
		{"adjacency trailing bytes", adj, append(adjOne, 0)},
		{"empty record", rec, nil},
		{"23-byte record", rec, make([]byte, vrecWire-1)},
		{"empty suffix", suf, nil},
		{"suffix length past the end", suf, append(u32(4), 0, 1, 2)},
		{"suffix length overflows", suf, u32(^uint32(0))},
	} {
		if err := tc.store(tc.resp); err == nil {
			t.Errorf("%s: response %x accepted", tc.name, tc.resp)
		}
	}

	// Answers round-trip: a remote requester decodes what the owner holds.
	resp, err := f.x.dispatch(request(f.rec, V(3, false), V(2, false)))
	if err != nil {
		t.Fatal(err)
	}
	recs := map[Vertex]vrec{}
	if err := f.rec.store([]Vertex{V(3, false), V(2, false)}, resp, recs); err != nil {
		t.Fatal(err)
	}
	if want := (vrec{outdeg: 0, indeg: 1, predOut: 2}); recs[V(3, false)] != want {
		t.Errorf("record of 3+ = %+v, want %+v", recs[V(3, false)], want)
	}
	if got := recs[V(2, false)]; got.outdeg != 2 || got.indeg != 0 {
		t.Errorf("record of 2+ = %+v, want outdeg 2, indeg 0", got)
	}
	resp, err = f.x.dispatch(request(f.suf, sufKey{V(3, true), 4}))
	if err != nil {
		t.Fatal(err)
	}
	sufs := map[sufKey]seq.Seq{}
	if err := f.suf.store([]sufKey{{V(3, true), 4}}, resp, sufs); err != nil {
		t.Fatal(err)
	}
	read3 := make(seq.Seq, 20)
	for j := range read3 {
		read3[j] = seq.Base((3 + j) % 4)
	}
	if got, want := sufs[sufKey{V(3, true), 4}].String(), read3[:4].ReverseComplement().String(); got != want {
		t.Errorf("suffix of 3-/4 = %s, want %s", got, want)
	}
}

// TestPushRejectsMalformedPayload: a pushed payload that is not a whole
// number of records, or holds a record this rank does not own, is
// refused for each record kind push carries.
func TestPushRejectsMalformedPayload(t *testing.T) {
	f := newRoundFixture(t)
	part, me := f.x.part, f.x.me
	mine, foreign := V(3, true), V(5, false)
	check := func(name string, err error, wantErr bool) {
		t.Helper()
		if (err != nil) != wantErr {
			t.Errorf("%s: err = %v, want error %v", name, err, wantErr)
		}
	}
	edge := edgeRecord.put(nil, Edge{From: mine, To: foreign, Len: 4})
	_, err := decodeOwned(nil, part, me, edgeRecord, edge)
	check("owned edge", err, false)
	_, err = decodeOwned(nil, part, me, edgeRecord, edge[:edgeWire-1])
	check("ragged edge payload", err, true)
	_, err = decodeOwned(nil, part, me, edgeRecord, edgeRecord.put(nil, Edge{From: foreign, To: mine, Len: 4}))
	check("foreign edge", err, true)

	mark := twinMark.put(nil, [2]Vertex{mine, foreign})
	_, err = decodeOwned(nil, part, me, twinMark, append(mark, 0))
	check("ragged twin-mark payload", err, true)
	_, err = decodeOwned(nil, part, me, twinMark, twinMark.put(nil, [2]Vertex{foreign, mine}))
	check("foreign twin mark", err, true)

	deg := predDegRecord.put(nil, predDeg{mine, 1})
	_, err = decodeOwned(nil, part, me, predDegRecord, deg[:5])
	check("ragged pred-degree payload", err, true)
	_, err = decodeOwned(nil, part, me, predDegRecord, predDegRecord.put(nil, predDeg{foreign, 1}))
	check("foreign pred degree", err, true)
}

// FuzzGraphRoundRequest: arbitrary bytes sent to the owner side of every
// fetch round never panic it; a request a round accepts re-encodes to the
// same bytes, and its answer decodes back to one value per key.
func FuzzGraphRoundRequest(f *testing.F) {
	fx := newRoundFixture(f)
	f.Add(request(fx.adj, V(2, false), V(3, true)))
	f.Add(request(fx.rec, V(3, false)))
	f.Add(request(fx.suf, sufKey{V(2, true), 5}))
	f.Add(request(fx.suf, sufKey{V(2, true), -1}))
	f.Add([]byte{'b', 0, 0, 0, 0, 0, 0, 0, 4})
	f.Fuzz(func(t *testing.T, req []byte) {
		_, _ = fx.x.dispatch(req)
		if len(req) == 0 {
			return
		}
		body := req[1:]
		reencodes(t, fx.x, fx.adj, body)
		reencodes(t, fx.x, fx.rec, body)
		reencodes(t, fx.x, fx.suf, body)
	})
}

func reencodes[K comparable, V any](t *testing.T, x *exchange, rd *round[K, V], body []byte) {
	t.Helper()
	keys, err := decodeOwned(nil, x.part, x.me, rd.key, body)
	if err != nil {
		return
	}
	var again []byte
	for _, k := range keys {
		again = rd.key.put(again, k)
	}
	if !bytes.Equal(again, body) {
		t.Fatalf("%s request %x re-encodes to %x", rd.name, body, again)
	}
	resp, err := rd.serve(x, body)
	if err != nil {
		return
	}
	if err := rd.store(keys, resp, make(map[K]V)); err != nil {
		t.Fatalf("%s answer to %x does not decode: %v", rd.name, body, err)
	}
}

// TestOwnerlessVertexIsAnError: a key or record whose vertex names no read
// — as a peer's edge or vertex record could carry — makes fetch and push
// return an error on every rank that holds one, under both modes, while
// the collectives stay matched.
func TestOwnerlessVertexIsAnError(t *testing.T) {
	const p = 2
	pt, err := partition.BySize([]int{20, 20, 20, 20}, p)
	if err != nil {
		t.Fatal(err)
	}
	g := &Graph{Part: pt, Lens: []int32{20, 20, 20, 20}, Adj: map[Vertex][]Edge{}}
	for _, m := range []mode{modeBSP, modeAsync} {
		world, err := par.NewWorld(par.Config{P: p})
		if err != nil {
			t.Fatal(err)
		}
		fetchErrs, pushErrs := make([]error, p), make([]error, p)
		if err := world.Run(func(r rt.Runtime) {
			// Rank 0 asks for read 4 of 4; rank 1 for a vertex whose read id
			// overflows ReadID.
			bad := []Vertex{V(4, false), Vertex(uint64(1)<<33 | 1)}[r.Rank()]
			adj := g.adjacencyRound()
			x := openExchange(r, pt, m, adj)
			fetchErrs[r.Rank()] = fetch(x, adj, []Vertex{V(1, false), bad}, map[Vertex][]Edge{})
			if err := x.close(); err != nil {
				t.Errorf("mode %d rank %d: close: %v", m, r.Rank(), err)
			}
			_, pushErrs[r.Rank()] = push(r, pt, predDegRecord, []predDeg{{V(2, true), 1}, {bad, 1}})
		}); err != nil {
			t.Fatal(err)
		}
		for rk := 0; rk < p; rk++ {
			if fetchErrs[rk] == nil || pushErrs[rk] == nil {
				t.Errorf("mode %d rank %d: fetch err %v, push err %v; want both errors", m, rk, fetchErrs[rk], pushErrs[rk])
			}
		}
	}
}
