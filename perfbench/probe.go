package main

import (
	"time"

	"gnbody/internal/rt"
)

// Probe sizes: enough operations that a median per operation is steady,
// few enough that the probe stays well under a second.
const (
	probeBarriers = 200
	probeExchange = 50
	probeRPCs     = 200
	probePayload  = 64 << 10
)

// probeRuntime times the world's primitives after a traced pass: a
// barrier, an alltoallv of 64 KB to each of the 2 ranks, and an RPC round
// trip to the other rank. It reports rank 0's median per operation in
// microseconds.
func probeRuntime(w world, v map[string]float64) error {
	var barrier, exchange, rpc []float64
	timeOp := func(dst *[]float64, rank int, op func()) {
		start := time.Now()
		op()
		if rank == 0 {
			*dst = append(*dst, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	err := w.Run(func(r rt.Runtime) {
		rank := r.Rank()
		for range probeBarriers {
			timeOp(&barrier, rank, r.Barrier)
		}
		send := make([][]byte, r.Size())
		for i := range send {
			send[i] = make([]byte, probePayload)
		}
		for range probeExchange {
			timeOp(&exchange, rank, func() { r.Alltoallv(send) })
		}
		r.Serve(func(req []byte) []byte { return append([]byte(nil), req...) })
		r.Barrier() // every handler is registered before any call
		peer := (rank + 1) % r.Size()
		req := make([]byte, 16)
		for range probeRPCs {
			timeOp(&rpc, rank, func() {
				r.AsyncCall(peer, req, func([]byte) {})
				r.Drain(0)
			})
		}
		r.Barrier() // keep serving until the peer's calls are answered
	})
	v["rt.probe_barrier_us"] = median(barrier)
	v["rt.probe_alltoallv_64k_us"] = median(exchange)
	v["rt.probe_rpc_rtt_us"] = median(rpc)
	return err
}
