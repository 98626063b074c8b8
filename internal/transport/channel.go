package transport

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"time"

	"qracn/internal/quorum"
	"qracn/internal/wire"
)

// ChannelConfig tunes the simulated network.
type ChannelConfig struct {
	// Latency is the one-way message latency; a request/response call pays
	// it twice. Zero disables the latency simulation entirely.
	Latency time.Duration
	// Jitter adds a uniform random component in [0, Jitter) to each one-way
	// hop.
	Jitter time.Duration
	// Seed makes the jitter sequence reproducible; 0 derives a seed from
	// the clock.
	Seed int64
	// Codec, when set, crosses the node boundary through a real wire codec
	// stream instead of the Clone deep copy: every request and response is
	// encoded and decoded through a persistent per-destination pipe, exactly
	// the serialization a TCP connection performs. This is what makes
	// in-process benchmarks measure true marshaling cost. nil keeps Clone.
	Codec wire.Codec
}

// Fault is the outcome a FaultFunc injects into one call.
type Fault struct {
	// Drop loses the message: the call blocks until the caller's context
	// expires, modelling a silently dropped packet (the client sees a
	// timeout, not a refused connection).
	Drop bool
	// Delay adds extra one-way latency before delivery.
	Delay time.Duration
	// Err fails the call immediately with this error (e.g. ErrNodeDown to
	// model a refused connection, or a typed *Error).
	Err error
}

// FaultFunc inspects an outgoing call and decides what fault, if any, to
// inject. It runs on the caller's goroutine for every Call, so hooks keyed
// on the destination node (or node pairs, via closure state) give tests
// deterministic drop/delay/partition control without touching the oracle
// down-map.
type FaultFunc func(to quorum.NodeID, req *wire.Request) Fault

// injectFault applies the fault hook's outcome for one call on the caller's
// goroutine: an injected error, a drop that waits out ctx, or a delay. A nil
// result means the call proceeds.
func injectFault(ctx context.Context, fault FaultFunc, to quorum.NodeID, req *wire.Request) error {
	f := fault(to, req)
	if f.Err != nil {
		return f.Err
	}
	if f.Drop {
		<-ctx.Done()
		return classify(to, ErrKindTimeout, ctx.Err())
	}
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// ChannelNetwork is an in-process "cluster": server handlers registered per
// node ID, calls delivered synchronously after a simulated network delay,
// and messages deep-copied at both boundaries so replicas cannot share
// memory. Nodes can be taken down and brought back to exercise the
// fault-tolerance paths.
type ChannelNetwork struct {
	cfg ChannelConfig

	mu       sync.RWMutex
	handlers map[quorum.NodeID]Handler
	down     map[quorum.NodeID]bool
	fault    FaultFunc
	closed   bool

	rngMu sync.Mutex
	rng   *rand.Rand

	pipeMu sync.Mutex
	pipes  map[quorum.NodeID]*codecPipe
}

// codecPipe carries envelopes across the in-process node boundary through a
// persistent codec stream: one shared buffer with a long-lived encoder and
// decoder, encode and decode performed back-to-back under the lock. The
// strict alternation means each Decode consumes exactly the frame its
// Encode produced, which both stream codecs guarantee (one envelope = one
// frame).
type codecPipe struct {
	mu  sync.Mutex
	buf bytes.Buffer
	enc wire.EnvelopeEncoder
	dec wire.EnvelopeDecoder
}

func newCodecPipe(c wire.Codec) *codecPipe {
	p := &codecPipe{}
	p.enc = c.NewEncoder(&p.buf, false)
	p.dec = c.NewDecoder(&p.buf)
	return p
}

func (p *codecPipe) transfer(env *wire.Envelope) (*wire.Envelope, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.enc.Encode(env); err != nil {
		return nil, err
	}
	return p.dec.Decode()
}

// pipe returns the destination node's codec pipe, creating it on first use.
func (n *ChannelNetwork) pipe(to quorum.NodeID) *codecPipe {
	n.pipeMu.Lock()
	defer n.pipeMu.Unlock()
	p, ok := n.pipes[to]
	if !ok {
		p = newCodecPipe(n.cfg.Codec)
		n.pipes[to] = p
	}
	return p
}

// NewChannelNetwork creates an empty simulated network.
func NewChannelNetwork(cfg ChannelConfig) *ChannelNetwork {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &ChannelNetwork{
		cfg:      cfg,
		handlers: make(map[quorum.NodeID]Handler),
		down:     make(map[quorum.NodeID]bool),
		rng:      rand.New(rand.NewSource(seed)),
		pipes:    make(map[quorum.NodeID]*codecPipe),
	}
}

// Register installs the handler for a server node.
func (n *ChannelNetwork) Register(id quorum.NodeID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[id] = h
}

// SetDown marks a node unreachable (true) or reachable (false).
func (n *ChannelNetwork) SetDown(id quorum.NodeID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[id] = down
}

// SetFault installs (or, with nil, removes) a fault-injection hook consulted
// on every call. Unlike SetDown, injected faults are invisible to the Alive
// oracle — exactly what failure-detector tests need.
func (n *ChannelNetwork) SetFault(f FaultFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fault = f
}

// Alive reports whether the node is registered and not marked down. It has
// the quorum.AliveFunc shape so it can drive quorum construction directly.
func (n *ChannelNetwork) Alive(id quorum.NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.handlers[id]
	return ok && !n.down[id]
}

// Close marks the network closed; subsequent calls fail with ErrClosed.
func (n *ChannelNetwork) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
}

func (n *ChannelNetwork) hop(ctx context.Context) error {
	if n.cfg.Latency == 0 && n.cfg.Jitter == 0 {
		return ctx.Err()
	}
	d := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		n.rngMu.Lock()
		d += time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
		n.rngMu.Unlock()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Call implements Client. The request and response are deep-copied so the
// caller and the server never share mutable state, mirroring serialization
// over a real network.
func (n *ChannelNetwork) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	n.mu.RLock()
	h, ok := n.handlers[to]
	down := n.down[to]
	fault := n.fault
	closed := n.closed
	n.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, ErrUnknownNode
	}
	if down {
		return nil, ErrNodeDown
	}
	if fault != nil {
		if err := injectFault(ctx, fault, to, req); err != nil {
			return nil, err
		}
	}
	if err := n.hop(ctx); err != nil {
		return nil, err
	}
	// Isolate the two sides: either serialize through the configured codec
	// (as a real connection would) or deep-copy via Clone.
	reqIn := req
	if n.cfg.Codec != nil {
		env, err := n.pipe(to).transfer(&wire.Envelope{Req: req})
		if err != nil {
			return nil, &Error{Kind: ErrKindDecode, Node: to, Err: err}
		}
		reqIn = env.Req
	} else {
		reqIn = req.Clone()
	}
	// The caller's context crosses the "network" directly: handlers observe
	// the client's deadline and cancellation, as the TCP transport's cancel
	// frames arrange for real deployments.
	resp := h(ctx, reqIn)

	// The node may have gone down while "processing"; model the lost reply.
	n.mu.RLock()
	down = n.down[to]
	n.mu.RUnlock()
	if down {
		return nil, ErrNodeDown
	}
	if err := n.hop(ctx); err != nil {
		return nil, err
	}
	if n.cfg.Codec != nil {
		env, err := n.pipe(to).transfer(&wire.Envelope{IsResponse: true, Resp: resp})
		if err != nil {
			return nil, &Error{Kind: ErrKindDecode, Node: to, Err: err}
		}
		return env.Resp, nil
	}
	return resp.Clone(), nil
}

var _ Network = (*ChannelNetwork)(nil)
