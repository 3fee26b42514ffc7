package main

import (
	"runtime/metrics"

	"vortex"
)

// runtimeSamples are the Go runtime counters the per-layer metrics use.
var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// counterSnapshot returns a function reading the exported counters of the
// region's subsystems, the client and the Go runtime. Keys are
// "<layer>.<counter>"; the tracer stores their deltas on request spans.
func counterSnapshot(db *vortex.DB) func() map[string]float64 {
	return func() map[string]float64 {
		net := db.Region.Net.Stats()
		col := db.Region.Colossus.Stats()
		rs := db.Region.ReadSessions.Stats()
		cm := db.ClientMetrics()
		out := map[string]float64{
			"rpc.unary_calls":          float64(net.UnaryCalls),
			"rpc.stream_msgs":          float64(net.StreamMessages),
			"colossus.write_ops":       float64(col.WriteOps),
			"colossus.bytes_written":   float64(col.BytesWritten),
			"colossus.read_ops":        float64(col.ReadOps),
			"colossus.bytes_read":      float64(col.BytesRead),
			"readsession.bytes_served": float64(rs.BytesServed),
			"client.retries":           float64(cm.Retries),
			"client.rotations":         float64(cm.Rotations),
			"client.cache_hits":        float64(cm.Cache.Hits),
			"client.cache_misses":      float64(cm.Cache.Misses),
			"client.cache_evictions":   float64(cm.Cache.Evictions),
		}
		for _, addr := range db.Region.ServerAddrs() {
			st := db.Region.StreamServers[addr].Stats()
			out["streamserver.bytes_appended"] += float64(st.BytesAppended)
		}
		samples := make([]metrics.Sample, len(runtimeSamples))
		for i, name := range runtimeSamples {
			samples[i].Name = name
		}
		metrics.Read(samples)
		out["runtime.gc_cycles"] = float64(samples[0].Value.Uint64())
		out["runtime.alloc_bytes"] = float64(samples[1].Value.Uint64())
		out["runtime.gc_cpu_s"] = samples[2].Value.Float64()
		out["runtime.cpu_s"] = samples[3].Value.Float64()
		return out
	}
}
