package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds recorded at the layer boundaries the benchmark wraps.
const (
	spanExecute = iota // acn.Executor.Execute, the root of a transaction
	spanRefresh        // acn.Hub.RefreshOnce, a root of its own
	spanCall           // transport.Client.Call
	spanServe          // server.Node.Handle
	spanEncode         // wire codec Encode
	spanDecode         // wire codec Decode
)

var spanNames = [...]string{"execute", "refresh", "call", "serve", "encode", "decode"}

// span is one timed interval. Start and end are nanoseconds on the
// monotonic clock since the recorder's base; sub is the profile index for
// roots and the wire.Kind for calls, serves and codec frames.
type span struct {
	id, parent uint64
	kind, sub  int
	start, end int64
}

// frame travels in the context from a root span into the transport call
// and, because the channel transport hands the caller's context to the
// server handler, on into the serve wrapper. serve reports the handler's
// time back to the call that issued it.
type frame struct {
	span  uint64
	serve atomic.Int64
}

type frameKey struct{}

func withFrame(ctx context.Context, f *frame) context.Context {
	return context.WithValue(ctx, frameKey{}, f)
}

func frameOf(ctx context.Context) *frame {
	f, _ := ctx.Value(frameKey{}).(*frame)
	return f
}

// spanLog keeps spans in memory until the run ends. New roots stop being
// traced once limit spans are held, so a fast workload cannot exhaust memory;
// the children of a root already traced are always kept.
type spanLog struct {
	base  time.Time
	limit int
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newSpanLog(limit int) *spanLog {
	return &spanLog{base: time.Now(), limit: limit, spans: make([]span, 0, limit)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

func (l *spanLog) newID() uint64 { return l.next.Add(1) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// room reports whether a new root may still be traced.
func (l *spanLog) room() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans) < l.limit
}

// snapshot returns the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write stores the spans as tab-separated lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tkind\tsub\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, spanNames[s.kind], s.sub, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open [lo, hi) stretch of a root's time.
type interval struct{ lo, hi int64 }

// unionLen is the length of the union of intervals clipped to [lo, hi).
func unionLen(iv []interval, lo, hi int64) int64 {
	c := make([]interval, 0, len(iv))
	for _, x := range iv {
		a, b := max(x.lo, lo), min(x.hi, hi)
		if a < b {
			c = append(c, interval{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].lo < c[j].lo })
	var total, end int64 = 0, lo
	for _, x := range c {
		a := max(x.lo, end)
		if x.hi > a {
			total += x.hi - a
			end = x.hi
		}
	}
	return total
}

// split attributes the wall-clock time of every Execute root to three parts
// that add up to it exactly. Server time is the union of the serve spans
// beneath the root. Network time is the rest of the union of its transport
// calls: simulated hops, codec frames and queueing between them. Client
// time is the root's self time, its duration minus the union of its
// children: ACN execution, local compute, backoff. serveFrac gives the
// server share of each wire kind (the union of that kind's serve spans).
type split struct {
	roots                   int
	total                   int64
	client, network, server int64
	serveByKind             map[int]int64
}

func attribute(spans []span) split {
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].id] = &spans[i]
	}
	calls := make(map[uint64][]interval)  // root -> call intervals
	serves := make(map[uint64][]interval) // root -> serve intervals
	serveKind := make(map[uint64]map[int][]interval)
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case spanCall:
			if p := byID[s.parent]; p != nil && p.kind == spanExecute {
				calls[p.id] = append(calls[p.id], interval{s.start, s.end})
			}
		case spanServe:
			c := byID[s.parent]
			if c == nil {
				continue
			}
			if p := byID[c.parent]; p != nil && p.kind == spanExecute {
				serves[p.id] = append(serves[p.id], interval{s.start, s.end})
				if serveKind[p.id] == nil {
					serveKind[p.id] = make(map[int][]interval)
				}
				serveKind[p.id][s.sub] = append(serveKind[p.id][s.sub], interval{s.start, s.end})
			}
		}
	}
	out := split{serveByKind: make(map[int]int64)}
	for i := range spans {
		r := &spans[i]
		if r.kind != spanExecute {
			continue
		}
		out.roots++
		dur := r.end - r.start
		busy := unionLen(append(append([]interval(nil), calls[r.id]...), serves[r.id]...), r.start, r.end)
		srv := unionLen(serves[r.id], r.start, r.end)
		out.total += dur
		out.client += dur - busy
		out.network += busy - srv
		out.server += srv
		for k, iv := range serveKind[r.id] {
			out.serveByKind[k] += unionLen(iv, r.start, r.end)
		}
	}
	return out
}
