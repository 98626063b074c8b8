package main

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// numKinds bounds the wire.Kind values the per-kind tables hold.
const numKinds = 16

// kindCounter accumulates one wire kind's work: how many, and the time
// spent in total and inside the server handler.
type kindCounter struct {
	n, total, serve atomic.Int64
}

func (c *kindCounter) add(total, serve int64) {
	c.n.Add(1)
	c.total.Add(total)
	c.serve.Add(serve)
}

func (c *kindCounter) mean() time.Duration {
	return time.Duration(ratio(float64(c.total.Load()), float64(c.n.Load())))
}

// layers times QR-ACN's layers from outside, by wrapping their public entry
// points: the transport.Client each runtime is given, the wire.Codec the
// channel network marshals with, and each node's Handle as registered on
// the network. Counters and spans are taken only while on is set, which the
// driver sets for the measured window.
type layers struct {
	on    atomic.Bool
	spans *spanLog

	calls [numKinds]kindCounter // client side: whole transport call
	serve [numKinds]kindCounter // server side: Node.Handle

	sampleMu                    sync.Mutex
	servePrepare, serveDecision []time.Duration

	encodes, decodes   atomic.Int64
	encodeNs, decodeNs atomic.Int64
	encodedBytes       atomic.Int64

	// owner maps a request or response in flight to the call span that
	// carries it, so codec spans find their parent.
	owner sync.Map
}

func newLayers(spanLimit int) *layers { return &layers{spans: newSpanLog(spanLimit)} }

func kindIndex(k wire.Kind) int { return min(max(int(k), 0), numKinds-1) }

// timedClient wraps the transport a runtime is given.
type timedClient struct {
	inner transport.Client
	l     *layers
}

func (c *timedClient) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	l := c.l
	if !l.on.Load() {
		return c.inner.Call(ctx, to, req)
	}
	f := &frame{}
	parent := uint64(0)
	if pf := frameOf(ctx); pf != nil && pf.span != 0 {
		parent = pf.span
		f.span = l.spans.newID()
		// A fan-out sends one request to several nodes; a private copy per
		// call gives the codec a unique key for this call's frame.
		cp := *req
		req = &cp
		l.owner.Store(req, f.span)
		defer l.owner.Delete(req)
	}
	start := l.spans.now()
	resp, err := c.inner.Call(withFrame(ctx, f), to, req)
	end := l.spans.now()
	k := kindIndex(req.Kind)
	l.calls[k].add(end-start, f.serve.Load())
	if f.span != 0 {
		l.spans.add(span{id: f.span, parent: parent, kind: spanCall, sub: k, start: start, end: end})
	}
	return resp, err
}

// wrapHandler times a node's Handle.
func (l *layers) wrapHandler(h transport.Handler) transport.Handler {
	return func(ctx context.Context, req *wire.Request) *wire.Response {
		if !l.on.Load() {
			return h(ctx, req)
		}
		start := l.spans.now()
		resp := h(ctx, req)
		end := l.spans.now()
		d := end - start
		k := kindIndex(req.Kind)
		l.serve[k].add(d, d)
		if req.Kind == wire.KindPrepare || req.Kind == wire.KindDecision {
			l.sampleMu.Lock()
			if req.Kind == wire.KindPrepare {
				l.servePrepare = append(l.servePrepare, time.Duration(d))
			} else {
				l.serveDecision = append(l.serveDecision, time.Duration(d))
			}
			l.sampleMu.Unlock()
		}
		f := frameOf(ctx)
		if f == nil {
			return resp
		}
		f.serve.Store(d)
		if f.span != 0 {
			l.spans.add(span{id: l.spans.newID(), parent: f.span, kind: spanServe, sub: k, start: start, end: end})
			cp := *resp
			resp = &cp
			l.owner.Store(resp, f.span)
		}
		return resp
	}
}

// timedCodec wraps wire.Binary. The channel network builds one encoder and
// one decoder over the same buffer per destination and always decodes the
// frame it has just encoded, so the pair shares a link through which the
// decoder learns the parent span of the frame it reads.
type timedCodec struct {
	inner wire.Codec
	l     *layers

	mu    sync.Mutex
	links map[any]*codecLink
}

type codecLink struct{ parent, kind atomic.Int64 }

func newTimedCodec(inner wire.Codec, l *layers) *timedCodec {
	return &timedCodec{inner: inner, l: l, links: make(map[any]*codecLink)}
}

func (c *timedCodec) Name() string { return c.inner.Name() }
func (c *timedCodec) ID() byte     { return c.inner.ID() }

func (c *timedCodec) link(stream any) *codecLink {
	c.mu.Lock()
	defer c.mu.Unlock()
	k, ok := c.links[stream]
	if !ok {
		k = &codecLink{}
		c.links[stream] = k
	}
	return k
}

func (c *timedCodec) NewEncoder(w io.Writer, compress bool) wire.EnvelopeEncoder {
	cw := &countingWriter{w: w}
	return &timedEncoder{inner: c.inner.NewEncoder(cw, compress), cw: cw, l: c.l, link: c.link(w)}
}

func (c *timedCodec) NewDecoder(r io.Reader) wire.EnvelopeDecoder {
	return &timedDecoder{inner: c.inner.NewDecoder(r), l: c.l, link: c.link(r)}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type timedEncoder struct {
	inner wire.EnvelopeEncoder
	cw    *countingWriter
	l     *layers
	link  *codecLink
}

func (e *timedEncoder) Encode(env *wire.Envelope) error {
	l := e.l
	if !l.on.Load() {
		return e.inner.Encode(env)
	}
	var parent uint64
	var key any = env.Req
	kind := 0
	if env.IsResponse {
		key = env.Resp
	} else if env.Req != nil {
		kind = kindIndex(env.Req.Kind)
	}
	if v, ok := l.owner.LoadAndDelete(key); ok {
		parent = v.(uint64)
	}
	n0 := e.cw.n
	start := l.spans.now()
	err := e.inner.Encode(env)
	end := l.spans.now()
	l.encodes.Add(1)
	l.encodeNs.Add(end - start)
	l.encodedBytes.Add(e.cw.n - n0)
	e.link.parent.Store(int64(parent))
	e.link.kind.Store(int64(kind))
	if parent != 0 {
		l.spans.add(span{id: l.spans.newID(), parent: parent, kind: spanEncode, sub: kind, start: start, end: end})
	}
	return err
}

type timedDecoder struct {
	inner wire.EnvelopeDecoder
	l     *layers
	link  *codecLink
}

func (d *timedDecoder) Decode() (*wire.Envelope, error) {
	l := d.l
	if !l.on.Load() {
		return d.inner.Decode()
	}
	start := l.spans.now()
	env, err := d.inner.Decode()
	end := l.spans.now()
	l.decodes.Add(1)
	l.decodeNs.Add(end - start)
	if parent := uint64(d.link.parent.Swap(0)); parent != 0 {
		l.spans.add(span{id: l.spans.newID(), parent: parent, kind: spanDecode, sub: int(d.link.kind.Load()), start: start, end: end})
	}
	return env, err
}
