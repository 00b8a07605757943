package main

import (
	"gnbody/internal/core"
	"gnbody/internal/graph"
	"gnbody/internal/pipeline"
	"gnbody/internal/stats"
	"gnbody/internal/trace"
)

// occRecord is the size of one k-mer occurrence in the discover stage's
// first exchange: 8-byte code, 4-byte read, 4-byte position, strand byte.
const occRecord = 17

// tracedPass is one traced assembly: its spans and its outputs.
type tracedPass struct {
	tr  *tracer
	out *assemblyOut
}

// perRank accumulates a value per rank within one pass.
type perRank [ranks]float64

func (p *perRank) summary() stats.Summary { return stats.Summarize(p[:]) }

// layerMetrics derives the per-layer metrics from traced passes. Times are
// the maximum over ranks within a pass, summed over passes; counts are
// summed over ranks and passes; percentiles pool every sample.
func layerMetrics(passes []tracedPass, v map[string]float64) {
	const ns = 1e9
	var (
		stageMax          = map[string]float64{}
		discoverSelf      float64
		alignWait, kernel float64
		alignWorkMax      float64
		alignWorkMean     float64
		kernelSum         float64
		rtSelf            = map[string]float64{}
		rtCalls           = map[string]float64{}
		rpcCalls          float64
		rtt, task         []float64
		occ, cells        float64
		wall              float64
	)
	for _, p := range passes {
		wall += p.out.wall.Seconds()
		stage := map[string]*perRank{}
		var dSelf, wait, kern perRank
		self := map[string]*perRank{}
		calls := map[string]*perRank{}
		for rank, rk := range p.tr.ranks {
			cells += float64(rk.cells)
			firstExchange := true
			for i := range rk.spans {
				s := &rk.spans[i]
				switch {
				case s.Name == spanStage:
					if stage[s.Stage] == nil {
						stage[s.Stage] = &perRank{}
					}
					stage[s.Stage][rank] += float64(s.dur()) / ns
					if s.Stage == "discover" {
						dSelf[rank] += float64(s.self()) / ns
					}
				case s.Name == spanAlign:
					kern[rank] += float64(s.dur()) / ns
					task = append(task, float64(s.dur())/1e3)
				case s.Name == spanRPC:
					rpcCalls++
					if s.End > s.Start {
						rtt = append(rtt, float64(s.dur())/1e3)
					}
				default: // a blocking runtime call
					if self[s.Name] == nil {
						self[s.Name], calls[s.Name] = &perRank{}, &perRank{}
					}
					self[s.Name][rank] += float64(s.self()) / ns
					calls[s.Name][rank]++
					if s.Stage == "align" {
						wait[rank] += float64(s.self()) / ns
					}
					if s.Name == spanAlltoallv && s.Stage == "discover" && firstExchange {
						occ += float64(s.Bytes) / occRecord
						firstExchange = false
					}
				}
			}
		}
		for name, pr := range stage {
			stageMax[name] += pr.summary().Max
		}
		// Imbalance compares the ranks' align work: the stage span less
		// its waits, since a collective at the end evens out the spans.
		if a := stage["align"]; a != nil {
			var work perRank
			for rank := range work {
				work[rank] = a[rank] - wait[rank]
			}
			ws := work.summary()
			alignWorkMax += ws.Max
			alignWorkMean += ws.Mean()
		}
		discoverSelf += dSelf.summary().Max
		alignWait += wait.summary().Max
		kernel += kern.summary().Max
		kernelSum += kern.summary().Sum
		for name := range self {
			rtSelf[name] += self[name].summary().Max
			rtCalls[name] += calls[name].summary().Max
		}
	}

	v["pipeline.discover_s"] = stageMax["discover"]
	v["pipeline.discover_self_s"] = discoverSelf
	v["pipeline.occ_shipped"] = occ
	v["core.align_s"] = stageMax["align"]
	v["core.align_wait_s"] = alignWait
	v["core.imbalance"] = ratio(alignWorkMax, alignWorkMean)
	v["align.kernel_s"] = kernel
	v["align.tasks"] = float64(len(task))
	v["align.gcells"] = cells / 1e9
	v["align.gcells_per_s"] = ratio(cells/1e9, kernelSum)
	v["align.task_p50_us"] = percentile(task, 0.5)
	v["align.task_p99_us"] = percentile(task, 0.99)
	v["graph.build_s"] = stageMax["graph"]
	v["graph.reduce_s"] = stageMax["reduce"]
	v["graph.contigs_s"] = stageMax["contigs"]
	v["rt.alltoallv_calls"] = rtCalls[spanAlltoallv]
	v["rt.alltoallv_s"] = rtSelf[spanAlltoallv]
	v["rt.allreduce_calls"] = rtCalls[spanAllreduce]
	v["rt.barrier_s"] = rtSelf[spanBarrier]
	v["rt.drain_s"] = rtSelf[spanDrain]
	v["rt.rpc_calls"] = rpcCalls
	v["rt.rpc_rtt_p50_us"] = percentile(rtt, 0.5)
	v["rt.rpc_rtt_p99_us"] = percentile(rtt, 0.99)
	var covered float64
	for _, s := range stageMax {
		covered += s
	}
	v["trace.stage_coverage"] = ratio(covered, wall)

	countMetrics(passes, v)
}

// countMetrics reads the program's own counters: the discover stage's
// statistics, the drivers' results, graph sizes, and the per-stage deltas
// of rt.Metrics in StageRun.Rows.
func countMetrics(passes []tracedPass, v map[string]float64) {
	var (
		owned, retained, emitted, pairs, tasks int64
		hits, remote, fetches, supersteps      int64
		edges, reducedEdges                    int
		peakExchange                           int64
		row                                    = map[string]trace.RankMetrics{} // summed over ranks and passes
	)
	for _, p := range passes {
		var steps int64
		for _, run := range p.out.runs {
			d := run.Outs[outDiscover].(*pipeline.Output)
			owned += d.KmersOwned
			retained += d.KmersRetained
			emitted += d.PairsEmitted
			pairs += d.PairsOwned
			tasks += int64(len(d.Tasks))
			res := run.Outs[outAlign].(*core.Result)
			hits += int64(len(res.Hits))
			remote += int64(res.RemoteReads)
			fetches += int64(res.WireFetches)
			steps = max(steps, int64(res.Supersteps))
			edges += run.Outs[outGraph].(*graph.Graph).NumEdges
			reducedEdges += run.Outs[outReduce].(*graph.Graph).NumEdges
			for _, r := range run.Rows {
				acc := row[r.Stage]
				acc.BytesSent += r.BytesSent
				acc.Msgs += r.Msgs
				acc.GraphFetches += r.GraphFetches
				acc.GraphCoalesced += r.GraphCoalesced
				acc.SWARTasks += r.SWARTasks
				acc.FallbackTasks += r.FallbackTasks
				acc.LaneCells += r.LaneCells
				acc.LaneSlots += r.LaneSlots
				row[r.Stage] = acc
				if r.Stage == "align" {
					peakExchange = max(peakExchange, r.PeakExch, r.PeakRPC)
				}
			}
		}
		supersteps += steps
	}
	al := row["align"]
	var graphBytes, graphFetches, graphCoalesced, msgs, sent int64
	for stage, r := range row {
		msgs += r.Msgs
		sent += r.BytesSent
		if stage == "graph" || stage == "reduce" || stage == "contigs" {
			graphBytes += r.BytesSent
			graphFetches += r.GraphFetches
			graphCoalesced += r.GraphCoalesced
		}
	}

	v["pipeline.discover_bytes"] = float64(row["discover"].BytesSent)
	v["pipeline.retained_frac"] = ratio(retained, owned)
	v["pipeline.dedup_ratio"] = ratio(pairs, emitted)
	v["pipeline.tasks"] = float64(tasks)
	v["core.remote_reads"] = float64(remote)
	v["core.wire_fetches"] = float64(fetches)
	v["core.exchange_bytes"] = float64(al.BytesSent)
	v["core.supersteps"] = float64(supersteps)
	v["core.max_exchange_mb"] = float64(peakExchange) / 1e6
	v["align.hits"] = float64(hits)
	v["align.hit_ratio"] = ratio(float64(hits), v["align.tasks"])
	v["align.swar_frac"] = ratio(al.SWARTasks, al.SWARTasks+al.FallbackTasks)
	v["align.lane_occupancy"] = ratio(al.LaneCells, al.LaneSlots)
	v["graph.edges"] = float64(edges)
	v["graph.edges_reduced"] = float64(reducedEdges)
	v["graph.fetches"] = float64(graphFetches)
	v["graph.coalesced"] = float64(graphCoalesced)
	v["graph.bytes"] = float64(graphBytes)
	v["rt.msgs"] = float64(msgs)
	v["rt.bytes_sent"] = float64(sent)
}
