package main

import (
	"time"

	"qracn/internal/metrics"
	"qracn/internal/wire"
)

// profileNames lists every profile of the three workloads; a profile the
// workload does not run reads 0.
var profileNames = []string{"new-order", "payment", "delivery", "order-status", "stock-level", "transfer", "balance"}

// callKinds are the wire kinds the transport and server metrics break out.
var callKinds = []wire.Kind{wire.KindRead, wire.KindBatch, wire.KindPrepare, wire.KindDecision, wire.KindRepair, wire.KindStats}

// perLayer computes the per-layer metrics of a traced window.
func perLayer(d *deployment, w *window, lay *layers, spans []span, floor time.Duration, say report) map[string]metric {
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	secs := w.length.Seconds()
	b, a := w.before, w.after
	commits := float64(a.dtm.Commits - b.dtm.Commits)
	perCommit := func(v uint64) float64 { return ratio(float64(v), commits) }

	// acn: Execute latency per profile, refresh cost, recomposition.
	profiles := d.w.Profiles()
	byProfile := make(map[string][]time.Duration)
	blocks, executed := 0, 0
	for _, s := range w.samples {
		if !s.err {
			byProfile[profiles[s.profile].Name] = append(byProfile[profiles[s.profile].Name], s.d)
		}
		blocks += s.blocks
		executed++
	}
	for _, p := range profileNames {
		set("acn.execute_p50_ms."+p, ms(quantile(byProfile[p], 0.5)), "ms")
		if n := len(byProfile[p]); n > 0 {
			say("acn: %s p50 %.3f ms over %d samples", p, ms(quantile(byProfile[p], 0.5)), n)
		}
	}
	set("acn.refresh_ms", ms(mean(w.refreshes)), "ms")
	set("acn.recompositions", float64(w.recomposed), "count")
	set("acn.blocks_per_tx", ratio(float64(blocks), float64(executed)), "count")
	say("acn: %d refreshes, %d changed a composition", len(w.refreshes), w.recomposed)

	set("unitgraph.analyze_ms", ms(d.analyze), "ms")

	// dtm: counter deltas over the window.
	dd := func(after, before uint64) uint64 { return after - before }
	set("dtm.attempts_per_commit", ratio(commits+float64(dd(a.dtm.ParentAborts, b.dtm.ParentAborts)), commits), "ratio")
	set("dtm.partial_aborts_per_commit", perCommit(dd(a.dtm.SubAborts, b.dtm.SubAborts)), "ratio")
	set("dtm.busy_backoffs_per_commit", perCommit(dd(a.dtm.BusyBackoffs, b.dtm.BusyBackoffs)), "ratio")
	set("dtm.aborts_per_commit.read_validation", perCommit(dd(a.dtm.AbortsReadValidation, b.dtm.AbortsReadValidation)), "ratio")
	set("dtm.aborts_per_commit.lock_conflict", perCommit(dd(a.dtm.AbortsLockConflict, b.dtm.AbortsLockConflict)), "ratio")
	set("dtm.aborts_per_commit.commit_round", perCommit(dd(a.dtm.AbortsCommitRound, b.dtm.AbortsCommitRound)), "ratio")
	set("dtm.remote_reads_per_commit", perCommit(dd(a.dtm.RemoteReads, b.dtm.RemoteReads)), "ratio")
	set("dtm.prefetched_objects_per_commit", perCommit(dd(a.dtm.PrefetchedObjects, b.dtm.PrefetchedObjects)), "ratio")
	set("dtm.repairs_per_commit", perCommit(dd(a.dtm.Repairs, b.dtm.Repairs)), "ratio")
	cross := float64(dd(a.dtm.CrossShardCommits, b.dtm.CrossShardCommits))
	single := float64(dd(a.dtm.SingleShardCommits, b.dtm.SingleShardCommits))
	set("dtm.cross_shard_ratio", ratio(cross, cross+single), "ratio")

	// transport and server, per wire kind.
	var busy int64
	for k := range lay.serve {
		busy += lay.serve[k].total.Load()
	}
	for _, k := range callKinds {
		c := &lay.calls[kindIndex(k)]
		n := c.n.Load()
		set("transport.calls_per_commit."+k.String(), ratio(float64(n), commits), "ratio")
		set("transport.call_us."+k.String(), us(c.mean()), "us")
		set("transport.net_us."+k.String(), ratio(float64(c.total.Load()-c.serve.Load()), float64(n))/1e3, "us")
		if k != wire.KindStats {
			set("server.serve_us."+k.String(), us(lay.serve[kindIndex(k)].mean()), "us")
		}
	}
	lay.sampleMu.Lock()
	prep, dec := lay.servePrepare, lay.serveDecision
	lay.sampleMu.Unlock()
	set("server.serve_p99_us.prepare", us(quantile(prep, tailQ(len(prep)))), "us")
	set("server.serve_p99_us.decision", us(quantile(dec, tailQ(len(dec)))), "us")
	say("server: prepare p%.1f over %d samples, decision p%.1f over %d samples",
		tailQ(len(prep))*100, len(prep), tailQ(len(dec))*100, len(dec))
	set("server.busy_s_per_s", float64(busy)/1e9/secs, "s/s")

	// wire.
	set("wire.encode_ns", ratio(float64(lay.encodeNs.Load()), float64(lay.encodes.Load())), "ns")
	set("wire.decode_ns", ratio(float64(lay.decodeNs.Load()), float64(lay.decodes.Load())), "ns")
	set("wire.bytes_per_frame", ratio(float64(lay.encodedBytes.Load()), float64(lay.encodes.Load())), "bytes")
	set("wire.frames_per_commit", ratio(float64(lay.encodes.Load()), commits), "ratio")

	// wal: every node's log, and the group-commit wait histogram.
	fsyncs := float64(a.wal.Fsyncs - b.wal.Fsyncs)
	set("wal.fsyncs_per_commit", ratio(fsyncs, commits), "ratio")
	set("wal.records_per_commit", perCommit(a.wal.Records-b.wal.Records), "ratio")
	set("wal.appends_per_fsync", ratio(float64(a.wal.Appends-b.wal.Appends), fsyncs), "ratio")
	set("wal.fsync_wait_p50_us", us(bucketQuantile(b.fsyncWait, a.fsyncWait, 0.5)), "us")

	set("store.objects", float64(d.storeObjects()), "count")

	// process.
	set("go.allocs_per_commit", perCommit(a.mem.Mallocs-b.mem.Mallocs), "count")
	set("go.alloc_bytes_per_commit", perCommit(a.mem.TotalAlloc-b.mem.TotalAlloc), "bytes")
	set("go.gc_per_s", float64(a.mem.NumGC-b.mem.NumGC)/secs, "1/s")

	set("host.timer_floor_us", us(floor), "us")

	// trace: where the Execute wall-clock time goes.
	sp := attribute(spans)
	tot := float64(sp.total)
	set("trace.self_frac.client", ratio(float64(sp.client), tot), "ratio")
	set("trace.self_frac.network", ratio(float64(sp.network), tot), "ratio")
	set("trace.self_frac.server", ratio(float64(sp.server), tot), "ratio")
	set("trace.serve_frac.prepare", ratio(float64(sp.serveByKind[int(wire.KindPrepare)]), tot), "ratio")
	set("trace.serve_frac.decision", ratio(float64(sp.serveByKind[int(wire.KindDecision)]), tot), "ratio")
	say("trace: %d Execute roots, mean %.3f ms: client %.1f%%, network %.1f%%, server %.1f%% (prepare %.1f%%, decision %.1f%%)",
		sp.roots, ratio(tot, float64(sp.roots))/1e6,
		100*ratio(float64(sp.client), tot), 100*ratio(float64(sp.network), tot), 100*ratio(float64(sp.server), tot),
		100*ratio(float64(sp.serveByKind[int(wire.KindPrepare)]), tot), 100*ratio(float64(sp.serveByKind[int(wire.KindDecision)]), tot))
	return m
}

// bucketQuantile is the q-quantile of the observations a cumulative
// histogram gained between two snapshots, at the histogram's power-of-two
// bucket resolution (the upper bound of the bucket holding the quantile).
// Buckets lists every bucket up to the last non-empty one, so a bucket
// missing from before holds before's whole count.
func bucketQuantile(before, after []metrics.Bucket, q float64) time.Duration {
	cumBefore := func(i int) uint64 {
		if i < len(before) {
			return before[i].Cumulative
		}
		if len(before) == 0 {
			return 0
		}
		return before[len(before)-1].Cumulative
	}
	if len(after) == 0 {
		return 0
	}
	last := len(after) - 1
	total := after[last].Cumulative - cumBefore(last)
	if total == 0 {
		return 0
	}
	for i, bk := range after {
		if float64(bk.Cumulative-cumBefore(i)) >= q*float64(total) {
			return bk.Upper
		}
	}
	return after[last].Upper
}
