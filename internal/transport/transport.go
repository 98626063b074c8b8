// Package transport moves wire messages between DTM clients and quorum
// nodes. Two implementations are provided: an in-process channel network
// that models the paper's 1 Gbps switched cluster by injecting per-message
// latency (used by tests, benchmarks, and the figure harness), and a real
// TCP transport (binary frames, request multiplexing, optional compression)
// for multi-process deployment via cmd/qracn-node. Both host a whole
// cluster behind the Network interface: ChannelNetwork and TCPNetwork, the
// latter one loopback listener per node.
package transport

import (
	"context"
	"errors"
	"sync"

	"qracn/internal/quorum"
	"qracn/internal/wire"
)

// Handler processes one request on a server node and returns the response.
// The context carries the caller's deadline and cancellation — over the
// channel transport it is the client's call context, over TCP it is a
// server-side context cancelled when the client sends a cancel frame or the
// connection drops. Handlers must be safe for concurrent use and should
// return promptly once ctx is done.
type Handler func(ctx context.Context, req *wire.Request) *wire.Response

// Client issues request/response calls to server nodes.
type Client interface {
	// Call sends req to the given node and waits for its response.
	Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error)
}

// Network is a cluster interconnect: a Client that also hosts the nodes'
// handlers. ChannelNetwork simulates it in process; TCPNetwork runs it over
// loopback sockets. A deployment built on either behaves the same.
type Network interface {
	Client
	// Register installs node id's handler, replacing any earlier one.
	Register(id quorum.NodeID, h Handler)
	// SetDown makes a node unreachable (true) or reachable again (false)
	// without touching its handler: a partition, not a crash.
	SetDown(id quorum.NodeID, down bool)
	// SetFault installs (or, with nil, removes) a per-call fault hook that
	// Alive does not see.
	SetFault(f FaultFunc)
	// Alive reports whether the node is registered and not down. It has the
	// quorum.AliveFunc shape.
	Alive(id quorum.NodeID) bool
	// Close shuts the network down; later calls fail with ErrClosed.
	Close()
}

// HandleBatch dispatches the sub-requests of a KindBatch request through h
// concurrently and assembles the sub-responses in matching order. Nested
// batches are rejected. When ctx is cancelled, sub-requests that have not
// started are answered with a cancelled error status instead of executing,
// and running handlers observe the cancellation through their context.
func HandleBatch(ctx context.Context, h Handler, req *wire.Request) *wire.Response {
	b := req.Batch
	if b == nil {
		return &wire.Response{Status: wire.StatusError, Detail: "batch request missing payload"}
	}
	resp := &wire.BatchResponse{Subs: make([]*wire.Response, len(b.Subs))}
	var wg sync.WaitGroup
	for i, sub := range b.Subs {
		switch {
		case sub == nil:
			resp.Subs[i] = &wire.Response{Status: wire.StatusError, Detail: "nil sub-request"}
			continue
		case sub.Kind == wire.KindBatch:
			resp.Subs[i] = &wire.Response{Status: wire.StatusError, Detail: "nested batch"}
			continue
		}
		wg.Add(1)
		go func(i int, sub *wire.Request) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				resp.Subs[i] = &wire.Response{Status: wire.StatusError, Detail: "cancelled: " + err.Error()}
				return
			}
			resp.Subs[i] = h(ctx, sub)
		}(i, sub)
	}
	wg.Wait()
	return &wire.Response{Status: wire.StatusOK, Batch: resp}
}

// Errors returned by transports.
var (
	// ErrNodeDown reports that the destination node is unreachable.
	ErrNodeDown = errors.New("transport: node is down")
	// ErrUnknownNode reports that no node with that ID is registered.
	ErrUnknownNode = errors.New("transport: unknown node")
	// ErrClosed reports use of a closed transport.
	ErrClosed = errors.New("transport: closed")
)
