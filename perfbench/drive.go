package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/dtm"
	"qracn/internal/metrics"
	"qracn/internal/wal"
)

// sample is one Execute call started inside the measured window.
type sample struct {
	profile int
	// at is when the call returned, from the start of the window.
	at     time.Duration
	d      time.Duration
	blocks int
	err    bool
}

// counters is a point-in-time copy of every program counter the per-layer
// metrics difference over the window.
type counters struct {
	dtm       dtm.Snapshot
	wal       wal.Stats
	fsyncWait []metrics.Bucket
	mem       runtime.MemStats
}

func (d *deployment) counters() counters {
	var c counters
	for _, cl := range d.clients {
		c.dtm.Add(cl.rt.Metrics().Snapshot())
	}
	for _, n := range d.c.Nodes {
		if w := n.WAL(); w != nil {
			s := w.Stats()
			c.wal.Appends += s.Appends
			c.wal.Records += s.Records
			c.wal.Fsyncs += s.Fsyncs
		}
	}
	c.fsyncWait = d.c.FsyncWait().Buckets()
	runtime.ReadMemStats(&c.mem)
	return c
}

// window is the outcome of one measured window.
type window struct {
	length     time.Duration
	samples    []sample
	before     counters
	after      counters
	refreshes  []time.Duration
	recomposed int
	liveHeap   uint64
	// committed and failed count every Execute of the run, warm-up and
	// drain included; the tally holds exactly the committed ones.
	committed, failed int
}

// run drives the closed loop: one worker per client issues its next
// transaction only when the last returns. Each hub refreshes at the nodes'
// stats-window period. After the warm-up the window opens; when it closes
// the workers issue nothing new, and the transactions in flight drain
// without being cancelled, so every Execute has a definite outcome.
func (d *deployment) run(seed int64, length time.Duration) *window {
	ctx := context.Background()
	spec := d.spec
	var (
		measuring, stop atomic.Bool
		phase           atomic.Int64
	)
	res := &window{length: length}
	lay := d.lay

	// The refresher: each tick refreshes every client's hub in turn.
	refreshStop := make(chan struct{})
	var refreshWG sync.WaitGroup
	refreshWG.Add(1)
	go func() {
		defer refreshWG.Done()
		tick := time.NewTicker(spec.statsWindow)
		defer tick.Stop()
		for {
			select {
			case <-refreshStop:
				return
			case <-tick.C:
			}
			for _, cl := range d.clients {
				d.refresh(ctx, cl, measuring.Load(), res)
			}
		}
	}()

	var start time.Time // written before measuring is set, read after
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, cl := range d.clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			rng := workerRNG(seed, i)
			var local []sample
			committed, failed := 0, 0
			for n := 0; !stop.Load(); n++ {
				prof, params := d.w.Generate(rng, int(phase.Load()))
				exec := cl.execs[prof]
				in := measuring.Load()
				xctx := ctx
				var root *span
				if in && lay != nil && n%traceEvery == 0 && lay.spans.room() {
					root = &span{id: lay.spans.newID(), kind: spanExecute, sub: prof}
					xctx = withFrame(ctx, &frame{span: root.id})
					root.start = lay.spans.now()
				}
				blocks := 0
				if lay != nil {
					blocks = exec.Composition().NumBlocks()
				}
				t0 := time.Now()
				err := exec.Execute(xctx, params)
				el := time.Since(t0)
				if root != nil {
					root.end = lay.spans.now()
					lay.spans.add(*root)
				}
				if err != nil {
					failed++
				} else {
					committed++
					d.tally.record(prof, params)
				}
				if in {
					local = append(local, sample{profile: prof, at: time.Since(start), d: el, blocks: blocks, err: err != nil})
				}
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.committed += committed
			res.failed += failed
			mu.Unlock()
		}(i, cl)
	}

	time.Sleep(spec.warmup)
	res.before = d.counters()
	if lay != nil {
		lay.on.Store(true)
	}
	start = time.Now()
	measuring.Store(true)
	if spec.flips {
		time.Sleep(length / 3)
		phase.Store(1)
		time.Sleep(time.Until(start.Add(2 * length / 3)))
		phase.Store(0)
	}
	time.Sleep(time.Until(start.Add(length)))
	measuring.Store(false)
	stop.Store(true)
	close(refreshStop)
	wg.Wait()
	refreshWG.Wait()
	if lay != nil {
		lay.on.Store(false)
	}
	res.after = d.counters()

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.liveHeap = m.HeapAlloc
	return res
}

// workerRNG is the source of worker i's transaction parameters. The seed
// reaches the run through here alone.
func workerRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
}

// refresh runs one hub refresh; on a traced deployment inside the window it
// is a root span, timed, and counted as a recomposition when any profile's
// Block sequence changed.
func (d *deployment) refresh(ctx context.Context, cl *client, in bool, res *window) {
	lay := d.lay
	if lay == nil || !in {
		_ = cl.hub.RefreshOnce(ctx) // transient errors: the next tick retries
		return
	}
	before := make([]string, len(cl.execs))
	for i, e := range cl.execs {
		before[i] = e.Composition().String()
	}
	root := span{id: lay.spans.newID(), kind: spanRefresh, start: lay.spans.now()}
	t0 := time.Now()
	_ = cl.hub.RefreshOnce(withFrame(ctx, &frame{span: root.id}))
	el := time.Since(t0)
	root.end = lay.spans.now()
	lay.spans.add(root)
	// Only the refresher goroutine writes these until run has waited for it.
	res.refreshes = append(res.refreshes, el)
	for i, e := range cl.execs {
		if e.Composition().String() != before[i] {
			res.recomposed++
			break
		}
	}
}
