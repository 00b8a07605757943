// The owner-keyed exchange (DESIGN.md §17): every cross-rank round of the
// assembly stages is a fetch (look keys up on their owners) or a push
// (send fixed-size records to their owner). Bytes from a peer never
// panic a rank; they become errors.
package graph

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"gnbody/internal/partition"
	"gnbody/internal/rt"
)

// mode is the transport of a stage's fetch rounds.
type mode int

const (
	modeBSP mode = iota
	modeAsync
)

// parseMode reads a mode's exported string form; "" means bsp.
func parseMode(s string) (mode, error) {
	switch s {
	case "", "bsp":
		return modeBSP, nil
	case "async":
		return modeAsync, nil
	}
	return 0, fmt.Errorf("graph: unknown mode %q", s)
}

// codec is the fixed-size wire form of a record or key, plus the vertex
// whose owner holds it.
type codec[T any] struct {
	name   string
	size   int
	put    func(dst []byte, t T) []byte // appends size bytes
	get    func(src []byte) T           // reads the first size bytes
	vertex func(t T) Vertex
}

var vertexKey = codec[Vertex]{name: "vertex", size: 8,
	put:    func(dst []byte, v Vertex) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(v)) },
	get:    func(src []byte) Vertex { return Vertex(binary.LittleEndian.Uint64(src)) },
	vertex: func(v Vertex) Vertex { return v },
}

// ownerOf returns the rank owning v's read. A vertex whose read id does
// not fit a ReadID, or names no read of the partition, has no owner.
func ownerOf(part *partition.Partition, v Vertex) (int, error) {
	o := part.Owner(v.Read())
	if V(v.Read(), v.Rev()) != v || o < 0 || o >= part.P {
		return 0, fmt.Errorf("graph: vertex %#x names no read", uint64(v))
	}
	return o, nil
}

// decodeOwned appends the records in buf to dst, rejecting a buffer that
// is not a whole number of records and any record rank me does not own.
func decodeOwned[T any](dst []T, part *partition.Partition, me int, c codec[T], buf []byte) ([]T, error) {
	if len(buf)%c.size != 0 {
		return dst, fmt.Errorf("graph: %s payload of %d bytes is not a multiple of %d", c.name, len(buf), c.size)
	}
	for off := 0; off < len(buf); off += c.size {
		t := c.get(buf[off:])
		if o, err := ownerOf(part, c.vertex(t)); err != nil || o != me {
			return dst, fmt.Errorf("graph: rank %d does not own the %s for vertex %v", me, c.name, c.vertex(t))
		}
		dst = append(dst, t)
	}
	return dst, nil
}

// push sends each record to the rank owning its vertex and returns the
// records this rank received, in source-rank order. Collective: the one
// Alltoallv runs even when a record has no owner.
func push[T any](r rt.Runtime, part *partition.Partition, c codec[T], recs []T) ([]T, error) {
	send := make([][]byte, r.Size())
	var err error
	r.Timed(rt.CatOverhead, func() {
		for _, t := range recs {
			dst, oerr := ownerOf(part, c.vertex(t))
			if oerr != nil {
				err = cmp.Or(err, fmt.Errorf("%w (in a %s)", oerr, c.name))
				continue
			}
			send[dst] = c.put(send[dst], t)
		}
	})
	recv := r.Alltoallv(send)
	var out []T
	r.Timed(rt.CatOverhead, func() {
		for src, buf := range recv {
			if err != nil {
				return
			}
			if out, err = decodeOwned(out, part, r.Rank(), c, buf); err != nil {
				err = fmt.Errorf("%w (from rank %d)", err, src)
			}
		}
	})
	return out, err
}

// round is one owner-keyed lookup.
type round[K comparable, V any] struct {
	name string
	tag  byte // selects the round in the stage's async handler
	key  codec[K]
	cmp  func(a, b K) int
	// answer appends the owner's answer for k. Answers are self-delimiting:
	// a response is the answers to a request's keys in request order.
	answer func(dst []byte, k K) ([]byte, error)
	// decode reads k's answer from the front of buf and reports its length.
	decode func(k K, buf []byte) (V, int, error)
}

// server is the owner side of a round, as the async handler sees it.
type server interface {
	roundTag() byte
	serve(x *exchange, body []byte) ([]byte, error)
}

func (rd *round[K, V]) roundTag() byte { return rd.tag }

// serve answers a request body: keys this rank owns.
func (rd *round[K, V]) serve(x *exchange, body []byte) ([]byte, error) {
	keys, err := decodeOwned(nil, x.part, x.me, rd.key, body)
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, k := range keys {
		if out, err = rd.answer(out, k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// store decodes the response to keys into into.
func (rd *round[K, V]) store(keys []K, resp []byte, into map[K]V) error {
	off := 0
	for _, k := range keys {
		v, n, err := rd.decode(k, resp[off:])
		if err != nil {
			return err
		}
		into[k] = v
		off += n
	}
	if off != len(resp) {
		return fmt.Errorf("graph: %d trailing bytes in %s response", len(resp)-off, rd.name)
	}
	return nil
}

func errTruncated(what string) error { return fmt.Errorf("graph: truncated %s answer", what) }

// exchange is one stage's transport for its fetch rounds.
type exchange struct {
	r      rt.Runtime
	part   *partition.Partition
	me     int
	async  bool
	rounds map[byte]server // by tag
	srvErr error           // first request refused under async
}

// openExchange starts a stage's fetch rounds. Under async it registers
// the stage's one Serve handler, then a Barrier ensures every rank serves
// before any calls in. Collective.
func openExchange(r rt.Runtime, part *partition.Partition, m mode, rounds ...server) *exchange {
	x := &exchange{r: r, part: part, me: r.Rank(), async: m == modeAsync, rounds: map[byte]server{}}
	for _, s := range rounds {
		x.rounds[s.roundTag()] = s
	}
	if x.async {
		r.Serve(x.handle)
		r.Barrier()
	}
	return x
}

// close ends a stage's fetch rounds: under async a Barrier keeps this
// rank serving peers still fetching. It returns the first request this
// rank refused. Collective.
func (x *exchange) close() error {
	if x.async {
		x.r.Barrier()
	}
	return x.srvErr
}

// handle is the async Serve handler. It answers a refused request empty,
// which the requester rejects as truncated.
func (x *exchange) handle(req []byte) []byte {
	resp, err := x.dispatch(req)
	x.srvErr = cmp.Or(x.srvErr, err)
	return resp
}

// dispatch answers an async request: a round tag, then the keys.
func (x *exchange) dispatch(req []byte) ([]byte, error) {
	if len(req) == 0 {
		return nil, errors.New("graph: empty request")
	}
	s, ok := x.rounds[req[0]]
	if !ok {
		return nil, fmt.Errorf("graph: request for unknown round %q", req[0])
	}
	return s.serve(x, req[1:])
}

// recall returns an answer held from an earlier fetch, counting the hit
// as a lookup saved from the wire.
func recall[K comparable, V any](r rt.Runtime, held map[K]V, k K) (V, bool) {
	v, ok := held[k]
	if ok {
		r.Metrics().GraphCoalesced++
	}
	return v, ok
}

// fetch looks keys up and stores each answer in into. Keys this rank owns
// are answered in place through the same encoding, so an answer never
// depends on where its key lives; a remote key already in into is not
// asked again; a key with no owner is an error. The other remote keys are
// grouped per owner, sorted and deduplicated, then cross in one
// request/response Alltoallv pair (bsp; collective, so every rank calls
// it, with or without keys) or in one AsyncCall per owner and a Drain
// (async). Each distinct remote key asked is a GraphFetch; each other
// remote lookup is GraphCoalesced.
func fetch[K comparable, V any](x *exchange, rd *round[K, V], keys []K, into map[K]V) error {
	r := x.r
	met := r.Metrics()
	perOwner := make([][]K, r.Size())
	var err error
	r.Timed(rt.CatOverhead, func() {
		for _, k := range keys {
			o, oerr := ownerOf(x.part, rd.key.vertex(k))
			if oerr != nil {
				err = cmp.Or(err, oerr)
				continue
			}
			if o != x.me {
				if _, ok := recall(r, into, k); !ok {
					perOwner[o] = append(perOwner[o], k)
				}
				continue
			}
			if _, held := into[k]; !held && err == nil {
				var buf []byte
				if buf, err = rd.answer(nil, k); err == nil {
					err = rd.store([]K{k}, buf, into)
				}
			}
		}
		for o, ks := range perOwner {
			slices.SortFunc(ks, rd.cmp)
			perOwner[o] = slices.Compact(ks)
			met.GraphCoalesced += int64(len(ks) - len(perOwner[o]))
			met.GraphFetches += int64(len(perOwner[o]))
		}
	})
	encode := func(req []byte, ks []K) []byte {
		for _, k := range ks {
			req = rd.key.put(req, k)
		}
		return req
	}

	if x.async {
		for o, ks := range perOwner {
			if len(ks) == 0 || err != nil {
				continue
			}
			r.AsyncCall(o, encode([]byte{rd.tag}, ks), func(resp []byte) {
				if e := rd.store(ks, resp, into); e != nil {
					err = cmp.Or(err, fmt.Errorf("graph: %s from rank %d: %w", rd.name, o, e))
				}
			})
		}
		if r.Outstanding() > 0 {
			r.Drain(0)
		}
		return err
	}

	req := make([][]byte, len(perOwner))
	for o, ks := range perOwner {
		if len(ks) > 0 {
			req[o] = encode(make([]byte, 0, rd.key.size*len(ks)), ks)
		}
	}
	inbound := r.Alltoallv(req)
	resp := make([][]byte, len(inbound))
	var srvErr error
	r.Timed(rt.CatOverhead, func() {
		for src, body := range inbound {
			if len(body) == 0 {
				continue
			}
			var e error
			if resp[src], e = rd.serve(x, body); e != nil {
				srvErr = cmp.Or(srvErr, fmt.Errorf("graph: %s request from rank %d: %w", rd.name, src, e))
			}
		}
	})
	// The response leg runs even after an error, so the peers'
	// collectives stay matched; the error surfaces after it.
	answers := r.Alltoallv(resp)
	err = cmp.Or(err, srvErr)
	for o, ks := range perOwner {
		if err != nil {
			break
		}
		if e := rd.store(ks, answers[o], into); e != nil {
			err = fmt.Errorf("graph: %s from rank %d: %w", rd.name, o, e)
		}
	}
	return err
}
