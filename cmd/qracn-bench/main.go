// Command qracn-bench regenerates the paper's evaluation (Figure 4, panels
// a-f): it runs each experiment for QR-DTM, QR-CN, and QR-ACN under an
// identical workload schedule on the in-process cluster and prints the
// per-interval throughput table plus the headline improvements next to the
// paper's numbers.
//
// Usage:
//
//	qracn-bench -fig all
//	qracn-bench -fig 4e -interval 2s -clients 16 -repeat 4
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"qracn/internal/harness"
	"qracn/internal/wire"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to reproduce: 4a..4f or 'all'")
		interval   = flag.Duration("interval", 400*time.Millisecond, "measurement interval length (paper: 10s)")
		clients    = flag.Int("clients", 8, "client nodes (paper: up to 20)")
		threads    = flag.Int("threads", 2, "concurrent transactions per client")
		servers    = flag.Int("servers", 10, "quorum nodes (paper: 10)")
		seed       = flag.Int64("seed", 1, "base random seed")
		repeat     = flag.Int("repeat", 1, "repetitions to average (paper: 4)")
		modesArg   = flag.String("modes", "all", "systems to run: all, dtm, cn, acn, cp (comma-separated; 'all' = the paper's three)")
		ablation   = flag.Bool("ablation", false, "run the ACN step-ablation study instead of the system comparison")
		sweep      = flag.String("sweep", "", "comma-separated client counts for a scalability sweep (e.g. 2,4,8,16)")
		jsonOut    = flag.Bool("json", false, "emit results as JSON instead of tables")
		jsonFile   = flag.String("json-out", "", "write the JSON results to this file (implies -json)")
		noPrefetch = flag.Bool("no-prefetch", false, "disable the batched first-access read prefetch (A/B the RPC pipeline)")
		noRepair   = flag.Bool("no-repair", false, "disable asynchronous read-repair of stale quorum members (A/B fault recovery)")
		decideTO   = flag.Duration("decide-timeout", 0, "per-client budget for delivering a 2PC decision after a yes-vote quorum (0: 10s default)")
		resolveAft = flag.Duration("resolve-after", 0, "run the nodes' cooperative termination loop with this in-doubt deadline (0: off)")
		noWAL      = flag.Bool("no-wal", false, "run the nodes volatile (no commit log) — the pre-durability configuration")
		walDir     = flag.String("wal-dir", "", "base directory for per-run commit logs (default: system temp)")
		fsyncEvery = flag.Duration("fsync-interval", 0, "group-commit accumulation window (0: 2ms default; negative: fsync every append)")
		snapEvery  = flag.Int("snapshot-every", 0, "checkpoint the store every N logged records (0: default; negative: never)")
		walAB      = flag.Bool("wal-ab", false, "run each figure twice — WAL on and off — and emit a combined JSON A/B document")
		stages     = flag.Bool("stages", false, "print per-stage latency percentiles (read, prefetch, prepare, commit, fsync wait) after each summary")
		traceCap   = flag.Int("trace-capacity", 0, "span/event ring size per node and client; >0 turns tracing on")
		traceRate  = flag.Int("trace-sample", 1, "with tracing on, record spans for 1-in-N transactions (0/1: all, negative: events only)")
		traceAB    = flag.Bool("trace-ab", false, "run each figure twice — tracing on and off — and emit a combined JSON A/B document with the overhead ratio")
		shards     = flag.Int("shards", 0, "partition the keyspace across this many independent quorum groups (0/1: one cluster-wide tree)")
		shardsAB   = flag.Bool("shards-ab", false, "run each figure twice — sharded (-shards groups, default 4) vs the single cluster-wide tree — and emit a combined JSON A/B document with the committed-throughput ratio")

		maxInflight = flag.Int("max-inflight", 0, "admission control on every node: max concurrently executing gated requests (0: gate off)")
		queueDepth  = flag.Int("queue-depth", 0, "admission wait-queue depth before requests are shed with StatusOverloaded (0: 4x -max-inflight)")
		txDeadline  = flag.Duration("tx-deadline", 0, "end-to-end deadline per transaction, propagated so servers refuse expired work (0: none)")
		retryBudget = flag.Int("retry-budget", 0, "retries per transaction attempt shared across failover, busy, and overload backoff (0: dtm default; negative: unlimited)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "hedge quorum reads to one spare replica after this delay (0: off; negative: auto from observed p99)")

		forensicsRing = flag.Int("forensics-ring", 0, "abort-forensics event ring capacity per node and client (0: 4096 default)")
		noForensics   = flag.Bool("no-forensics", false, "disable abort forensics entirely (conflict attribution rings and witnesses)")
	)
	flag.Parse()
	if *jsonFile != "" {
		*jsonOut = true
	}

	scale := harness.Scale{
		IntervalLength:   *interval,
		Clients:          *clients,
		ThreadsPerClient: *threads,
		Servers:          *servers,
		Seed:             *seed,
		DisablePrefetch:  *noPrefetch,
		NoRepair:         *noRepair,
		Durable:          !*noWAL,
		WALDir:           *walDir,
		FsyncInterval:    *fsyncEvery,
		SnapshotEvery:    *snapEvery,
		TraceCapacity:    *traceCap,
		TraceSample:      *traceRate,
		Codec:            wire.Binary,
		DecideTimeout:    *decideTO,
		ResolveAfter:     *resolveAft,
		Shards:           *shards,
		MaxInflight:      *maxInflight,
		QueueDepth:       *queueDepth,
		TxDeadline:       *txDeadline,
		RetryBudget:      *retryBudget,
		HedgeAfter:       *hedgeAfter,
		ForensicsRing:    *forensicsRing,
		NoForensics:      *noForensics,
	}

	modes, err := parseModes(*modesArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var figures []harness.Figure
	if *fig == "all" {
		figures = harness.Figures()
	} else {
		f, ok := harness.FigureByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (use 4a..4f or all)\n", *fig)
			os.Exit(2)
		}
		figures = []harness.Figure{f}
	}

	ctx := context.Background()
	var jsonDocs []json.RawMessage
	for _, f := range figures {
		fmt.Printf("=== Figure %s: %s ===\n", f.ID, f.Title)
		fmt.Printf("paper: %s\n\n", f.Expect)
		if *ablation {
			if err := runAblation(ctx, f, scale); err != nil {
				fmt.Fprintf(os.Stderr, "figure %s ablation: %v\n", f.ID, err)
				os.Exit(1)
			}
			fmt.Println()
			continue
		}
		if *sweep != "" {
			counts, err := parseInts(*sweep)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			sr, err := harness.SweepClients(ctx, f.Options(scale), modes, counts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figure %s sweep: %v\n", f.ID, err)
				os.Exit(1)
			}
			fmt.Print(sr.Table())
			fmt.Println()
			continue
		}
		if *walAB {
			doc, err := runWALAB(ctx, f, scale, modes, *repeat)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figure %s wal A/B: %v\n", f.ID, err)
				os.Exit(1)
			}
			jsonDocs = append(jsonDocs, doc)
			if *jsonFile == "" {
				fmt.Println(string(doc))
			}
			continue
		}
		if *traceAB {
			doc, err := runTraceAB(ctx, f, scale, modes, *repeat)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figure %s trace A/B: %v\n", f.ID, err)
				os.Exit(1)
			}
			jsonDocs = append(jsonDocs, doc)
			if *jsonFile == "" {
				fmt.Println(string(doc))
			}
			continue
		}
		if *shardsAB {
			n := *shards
			if n <= 1 {
				n = 4
			}
			doc, err := runShardsAB(ctx, f, scale, modes, *repeat, n)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figure %s shards A/B: %v\n", f.ID, err)
				os.Exit(1)
			}
			jsonDocs = append(jsonDocs, doc)
			if *jsonFile == "" {
				fmt.Println(string(doc))
			}
			continue
		}
		res, err := runAveraged(ctx, f, scale, modes, *repeat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		if *jsonOut {
			data, err := res.ExportJSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			jsonDocs = append(jsonDocs, data)
			if *jsonFile == "" {
				fmt.Println(string(data))
			}
			continue
		}
		fmt.Print(res.Table())
		fmt.Println()
		fmt.Print(res.Summary())
		if !*noForensics {
			fmt.Println()
			fmt.Print(res.AbortRatioTable())
		}
		if *stages {
			fmt.Println()
			fmt.Print(res.StageReport())
		}
		fmt.Println()
	}
	if *jsonFile != "" {
		var blob []byte
		switch len(jsonDocs) {
		case 0:
			fmt.Fprintln(os.Stderr, "no JSON results produced; nothing written")
			os.Exit(1)
		case 1:
			blob = append([]byte(nil), jsonDocs[0]...)
		default:
			var err error
			if blob, err = json.MarshalIndent(jsonDocs, "", "  "); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(*jsonFile, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("results written to %s\n", *jsonFile)
	}
}

// runWALAB measures the durability cost: the same figure, same seeds, once
// with the commit log on and once volatile, combined into one JSON document
// with the headline throughput delta.
func runWALAB(ctx context.Context, f harness.Figure, scale harness.Scale, modes []harness.Mode, repeat int) (json.RawMessage, error) {
	on := scale
	on.Durable = true
	off := scale
	off.Durable = false

	resOn, err := runAveraged(ctx, f, on, modes, repeat)
	if err != nil {
		return nil, fmt.Errorf("wal on: %w", err)
	}
	resOff, err := runAveraged(ctx, f, off, modes, repeat)
	if err != nil {
		return nil, fmt.Errorf("wal off: %w", err)
	}
	jsOn, err := resOn.ExportJSON()
	if err != nil {
		return nil, err
	}
	jsOff, err := resOff.ExportJSON()
	if err != nil {
		return nil, err
	}
	doc := struct {
		Figure     string          `json:"figure"`
		Title      string          `json:"title"`
		WALOn      json.RawMessage `json:"wal_on"`
		WALOff     json.RawMessage `json:"wal_off"`
		Throughput map[string]struct {
			On    float64 `json:"wal_on_tx_per_s"`
			Off   float64 `json:"wal_off_tx_per_s"`
			Ratio float64 `json:"on_over_off"`
		} `json:"mean_throughput"`
	}{Figure: f.ID, Title: f.Title, WALOn: jsOn, WALOff: jsOff}
	doc.Throughput = map[string]struct {
		On    float64 `json:"wal_on_tx_per_s"`
		Off   float64 `json:"wal_off_tx_per_s"`
		Ratio float64 `json:"on_over_off"`
	}{}
	for _, m := range modes {
		sOn, sOff := resOn.Series[m], resOff.Series[m]
		if sOn == nil || sOff == nil {
			continue
		}
		entry := doc.Throughput[m.String()]
		entry.On = meanOf(sOn.Throughput)
		entry.Off = meanOf(sOff.Throughput)
		if entry.Off > 0 {
			entry.Ratio = entry.On / entry.Off
		}
		doc.Throughput[m.String()] = entry
	}
	return json.MarshalIndent(doc, "", "  ")
}

// runTraceAB measures the observability cost: the same figure, same seeds,
// once with full tracing (span ring on every node and client, every
// transaction sampled) and once untraced, combined into one JSON document
// with the throughput ratio. The acceptance bar is on/off ≥ 0.95.
func runTraceAB(ctx context.Context, f harness.Figure, scale harness.Scale, modes []harness.Mode, repeat int) (json.RawMessage, error) {
	on := scale
	if on.TraceCapacity <= 0 {
		on.TraceCapacity = 4096
	}
	if on.TraceSample == 0 {
		on.TraceSample = 1
	}
	off := scale
	off.TraceCapacity = 0
	off.TraceSample = 0

	resOn, err := runAveraged(ctx, f, on, modes, repeat)
	if err != nil {
		return nil, fmt.Errorf("trace on: %w", err)
	}
	resOff, err := runAveraged(ctx, f, off, modes, repeat)
	if err != nil {
		return nil, fmt.Errorf("trace off: %w", err)
	}
	jsOn, err := resOn.ExportJSON()
	if err != nil {
		return nil, err
	}
	jsOff, err := resOff.ExportJSON()
	if err != nil {
		return nil, err
	}
	type ratio struct {
		On    float64 `json:"traced_tx_per_s"`
		Off   float64 `json:"untraced_tx_per_s"`
		Ratio float64 `json:"traced_over_untraced"`
	}
	doc := struct {
		Figure      string           `json:"figure"`
		Title       string           `json:"title"`
		TraceSample int              `json:"trace_sample"`
		TraceOn     json.RawMessage  `json:"trace_on"`
		TraceOff    json.RawMessage  `json:"trace_off"`
		Throughput  map[string]ratio `json:"mean_throughput"`
	}{
		Figure: f.ID, Title: f.Title, TraceSample: on.TraceSample,
		TraceOn: jsOn, TraceOff: jsOff, Throughput: map[string]ratio{},
	}
	for _, m := range modes {
		sOn, sOff := resOn.Series[m], resOff.Series[m]
		if sOn == nil || sOff == nil {
			continue
		}
		entry := ratio{On: meanOf(sOn.Throughput), Off: meanOf(sOff.Throughput)}
		if entry.Off > 0 {
			entry.Ratio = entry.On / entry.Off
		}
		doc.Throughput[m.String()] = entry
	}
	return json.MarshalIndent(doc, "", "  ")
}

// runShardsAB measures the sharding win: the same figure, same seeds, once
// with the keyspace partitioned across independent quorum groups and once
// over the single cluster-wide tree, combined into one JSON document with
// the committed-throughput ratio and the sharded side's routing profile.
// Both sides run volatile and without the simulated interconnect delay, so
// the ratio isolates quorum size, validation spread, and cross-group 2PC
// cost rather than fsync scheduling or the fixed per-hop latency (the same
// isolation the codec A/B uses).
func runShardsAB(ctx context.Context, f harness.Figure, scale harness.Scale, modes []harness.Mode, repeat, shards int) (json.RawMessage, error) {
	sharded := scale
	sharded.Shards = shards
	sharded.Durable = false
	sharded.NetLatency = -1
	sharded.NetJitter = -1
	single := sharded
	single.Shards = 0

	resSharded, err := runAveraged(ctx, f, sharded, modes, repeat)
	if err != nil {
		return nil, fmt.Errorf("%d shards: %w", shards, err)
	}
	resSingle, err := runAveraged(ctx, f, single, modes, repeat)
	if err != nil {
		return nil, fmt.Errorf("1 shard: %w", err)
	}
	jsSharded, err := resSharded.ExportJSON()
	if err != nil {
		return nil, err
	}
	jsSingle, err := resSingle.ExportJSON()
	if err != nil {
		return nil, err
	}
	type entry struct {
		ShardedTxPerSec    float64 `json:"sharded_tx_per_s"`
		UnshardedTxPerSec  float64 `json:"unsharded_tx_per_s"`
		Ratio              float64 `json:"sharded_over_unsharded"`
		ShardedCommits     uint64  `json:"sharded_commits"`
		UnshardedCommits   uint64  `json:"unsharded_commits"`
		SingleShardCommits uint64  `json:"single_shard_commits"`
		CrossShardCommits  uint64  `json:"cross_shard_commits"`
		CrossShardRatio    float64 `json:"cross_shard_ratio"`
	}
	doc := struct {
		Figure     string           `json:"figure"`
		Title      string           `json:"title"`
		Shards     int              `json:"shards"`
		Sharded    json.RawMessage  `json:"sharded"`
		Unsharded  json.RawMessage  `json:"unsharded"`
		Throughput map[string]entry `json:"mean_throughput"`
	}{
		Figure: f.ID, Title: f.Title, Shards: shards,
		Sharded: jsSharded, Unsharded: jsSingle, Throughput: map[string]entry{},
	}
	for _, m := range modes {
		sSharded, sSingle := resSharded.Series[m], resSingle.Series[m]
		if sSharded == nil || sSingle == nil {
			continue
		}
		e := entry{
			ShardedTxPerSec:    meanOf(sSharded.Throughput),
			UnshardedTxPerSec:  meanOf(sSingle.Throughput),
			ShardedCommits:     sSharded.Commits,
			UnshardedCommits:   sSingle.Commits,
			SingleShardCommits: sSharded.Metrics.SingleShardCommits,
			CrossShardCommits:  sSharded.Metrics.CrossShardCommits,
			CrossShardRatio:    sSharded.CrossShardRatio,
		}
		if e.UnshardedTxPerSec > 0 {
			e.Ratio = e.ShardedTxPerSec / e.UnshardedTxPerSec
		}
		doc.Throughput[m.String()] = e
	}
	return json.MarshalIndent(doc, "", "  ")
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runAblation measures QR-ACN with each algorithm step disabled in turn,
// quantifying what re-attachment, merging, and contention sorting each
// contribute (the design-choice index in DESIGN.md).
func runAblation(ctx context.Context, f harness.Figure, scale harness.Scale) error {
	variants := []struct {
		name string
		mut  func(*harness.Options)
	}{
		{"full ACN", func(*harness.Options) {}},
		{"no reattach (step 1 off)", func(o *harness.Options) { o.Algo.DisableReattach = true }},
		{"no merge (step 2 off)", func(o *harness.Options) { o.Algo.DisableMerge = true }},
		{"no sort (step 3 off)", func(o *harness.Options) { o.Algo.DisableSort = true }},
		{"static only (all off)", func(o *harness.Options) {
			o.Algo.DisableReattach = true
			o.Algo.DisableMerge = true
			o.Algo.DisableSort = true
		}},
	}
	fmt.Printf("%-28s %12s %12s\n", "variant", "mean tx/s", "commits")
	for _, v := range variants {
		opts := f.Options(scale)
		v.mut(&opts)
		res, err := harness.Run(ctx, opts, []harness.Mode{harness.ModeQRACN})
		if err != nil {
			return err
		}
		s := res.Series[harness.ModeQRACN]
		var mean float64
		for _, tp := range s.Throughput {
			mean += tp
		}
		mean /= float64(len(s.Throughput))
		fmt.Printf("%-28s %12.0f %12d\n", v.name, mean, s.Commits)
	}
	return nil
}

func parseModes(arg string) ([]harness.Mode, error) {
	if arg == "all" {
		return harness.AllModes, nil
	}
	var modes []harness.Mode
	for _, tok := range splitComma(arg) {
		switch tok {
		case "dtm":
			modes = append(modes, harness.ModeQRDTM)
		case "cn":
			modes = append(modes, harness.ModeQRCN)
		case "acn":
			modes = append(modes, harness.ModeQRACN)
		case "cp":
			modes = append(modes, harness.ModeQRCP)
		default:
			return nil, fmt.Errorf("unknown mode %q (use dtm, cn, acn, cp)", tok)
		}
	}
	return modes, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range splitComma(s) {
		n := 0
		for _, r := range tok {
			if r < '0' || r > '9' {
				return nil, fmt.Errorf("invalid count %q", tok)
			}
			n = n*10 + int(r-'0')
		}
		if n == 0 {
			return nil, fmt.Errorf("invalid count %q", tok)
		}
		out = append(out, n)
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// runAveraged repeats the experiment with shifted seeds and averages the
// per-interval throughput, as the paper does over four runs.
func runAveraged(ctx context.Context, f harness.Figure, scale harness.Scale, modes []harness.Mode, repeat int) (*harness.Result, error) {
	if repeat < 1 {
		repeat = 1
	}
	var acc *harness.Result
	for r := 0; r < repeat; r++ {
		s := scale
		s.Seed = scale.Seed + int64(r)*100
		res, err := harness.Run(ctx, f.Options(s), modes)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = res
			continue
		}
		for m, series := range res.Series {
			a := acc.Series[m]
			for i := range a.Throughput {
				a.Throughput[i] += series.Throughput[i]
			}
			a.Commits += series.Commits
			// Reflection-based: every counter aggregates, including ones
			// added after this loop was written.
			a.Metrics.Add(series.Metrics)
			a.DroppedCommits += series.DroppedCommits
			a.WAL.Add(series.WAL)
			a.Admission.Add(series.Admission)
			a.Forensics.Merge(series.Forensics)
			for i := range a.Shards {
				if i < len(series.Shards) {
					a.Shards[i].Add(series.Shards[i])
				}
			}
			if a.Metrics.Commits > 0 {
				a.CrossShardRatio = float64(a.Metrics.CrossShardCommits) / float64(a.Metrics.Commits)
			}
			// Stage percentiles are digests and cannot be averaged across
			// runs; the first repetition's digest stands for the figure.
		}
	}
	for _, series := range acc.Series {
		for i := range series.Throughput {
			series.Throughput[i] /= float64(repeat)
		}
	}
	return acc, nil
}
